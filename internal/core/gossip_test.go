package core

// The gossip hop as the group-message layer sees it: what one vgroup's
// members forward for a broadcast is the same bytes whichever path reached
// each of them first, and what the application is handed is its own.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/simnet"
	"atum/internal/smr"
)

// drainGroupSends frames n's pending egress items and takes its
// round-quantized send queue (memberNode runs ModeSync on a captured
// environment, so nothing leaves until drained).
func drainGroupSends(n *Node) []queuedSend {
	n.egress.FlushAll()
	out := n.outQ
	n.outQ = nil
	return out
}

// TestGossipVotesAgreeAcrossPathLengths pins the vote-split fix. Vgroup B's
// four members first accept one broadcast over paths of different length —
// two straight from the origin vgroup A, two through the detour A → X → B —
// and forward it to C. Their four votes must land on one digest, or C's
// member (majority 3) sees 2 + 2 and never accepts on that link.
func TestGossipVotesAgreeAcrossPathLengths(t *testing.T) {
	A := testComp(1, 1, 1, 2, 3)
	X := testComp(2, 1, 11, 12, 13)
	B := testComp(3, 1, 4, 5, 6, 7)
	C := testComp(4, 1, 21, 22, 23)

	nodes := map[ids.NodeID]*Node{}
	build := func(comp, nbr group.Composition, also ...group.Composition) {
		for _, m := range comp.Members {
			n, _ := memberNode(t, m.ID, comp, nbr)
			for _, c := range also {
				n.learnComp(c)
			}
			nodes[m.ID] = n
		}
	}
	build(A, B, X)
	for _, m := range A.Members { // A's second link leads to X
		nodes[m.ID].st.nbrs.Set(overlay.Link{Cycle: 0, Dir: overlay.Pred}, X.Clone())
	}
	build(X, B, A)
	build(B, C, A, X)
	receiver, _ := memberNode(t, 21, C, B)
	var delivered []string
	receiver.cfg.Callbacks.Deliver = func(d Delivery) { delivered = append(delivered, string(d.Data)) }

	// sendsOf drains every member of comp and sorts the messages by
	// destination, keeping the sender.
	type hop struct {
		from ids.NodeID
		msg  group.GroupMsg
	}
	sendsOf := func(comp group.Composition) map[ids.NodeID][]hop {
		out := map[ids.NodeID][]hop{}
		for _, m := range comp.Members {
			for _, q := range drainGroupSends(nodes[m.ID]) {
				out[q.to] = append(out[q.to], hop{from: m.ID, msg: q.msg.(group.GroupMsg)})
			}
		}
		return out
	}
	feed := func(to *Node, hops []hop) {
		for _, h := range hops {
			to.Receive(h.from, h.msg)
		}
	}

	op := bcastOp{BcastID: crypto.Hash([]byte("split")), Origin: 1, Data: []byte("one broadcast")}
	for _, m := range A.Members {
		nodes[m.ID].applyBcast(op)
	}
	fromA := sendsOf(A)
	for _, m := range X.Members {
		feed(nodes[m.ID], fromA[m.ID])
	}
	fromX := sendsOf(X)
	for i, m := range B.Members {
		first, second := fromA[m.ID], fromX[m.ID]
		if i >= 2 {
			first, second = second, first // members 6 and 7 hear of it through X
		}
		if len(first) == 0 || len(second) == 0 {
			t.Fatalf("member %v of B was not addressed on both links", m.ID)
		}
		feed(nodes[m.ID], first)
		feed(nodes[m.ID], second)
	}
	toC := sendsOf(B)[21]
	digests := map[crypto.Digest]int{}
	for _, h := range toC {
		digests[h.msg.PayloadDigest]++
	}
	if len(toC) != B.N() || len(digests) != 1 {
		t.Errorf("B's %d members sent %d copies naming %d digests, want one digest from all", B.N(), len(toC), len(digests))
	}
	feed(receiver, toC)
	if len(delivered) != 1 || delivered[0] != "one broadcast" {
		t.Fatalf("the receiver behind B delivered %q, want the broadcast once", delivered)
	}
}

// TestDeliverBufferIsPrivate sends one broadcast through a system of at least
// three vgroups in which every node scribbles over the buffer Deliver hands
// it. The accepted payload is shared — with the inbox, the forward queue and,
// on the simulator, every other recipient of the same send — so if Deliver's
// Data aliased it, the vgroups downstream would see the scribble: a payload
// that no longer hashes to its digest, or the wrong bytes delivered.
func TestDeliverBufferIsPrivate(t *testing.T) {
	const want = "a payload every node must see intact"
	got := map[ids.NodeID][][]byte{}
	h := newHarness(t, smr.ModeSync, 21, func(cfg *Config) {
		cfg.DisableShuffle = true
		cfg.EvictAfter = time.Hour
		id := cfg.Identity.ID
		cfg.Callbacks.Deliver = func(d Delivery) {
			got[id] = append(got[id], bytes.Clone(d.Data))
			for i := range d.Data {
				d.Data[i] = 0xEE
			}
		}
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 14, 120*time.Second)
	h.net.Run(h.net.Now() + 10*time.Second)
	if groups := len(h.groupsOf()); groups < 3 {
		t.Fatalf("%d vgroups, want at least 3 so that a payload is forwarded by nodes that delivered it", groups)
	}
	if err := nodes[len(nodes)-1].BroadcastWith([]byte(want), BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	h.net.Run(h.net.Now() + 30*time.Second)
	for _, n := range nodes {
		id := n.cfg.Identity.ID
		if len(got[id]) != 1 || string(got[id][0]) != want {
			t.Errorf("node %v delivered %q, want the payload exactly once", id, got[id])
		}
	}
}

// TestAsyncWANNoSplitGossipEntries is the same property end to end: 26 nodes
// in ModeAsync over a four-region WAN on two cycles, so that six vgroups sit
// up to three hops apart and the members of one really do first hear of a
// broadcast over paths of different length. Once the broadcasts have drained,
// no inbox holds a gossip message from a composition it knows that a majority
// voted for and that was never accepted — the residue that votes split over
// several digests left behind, payloads pinned, until inboxTTL (36 such
// entries on this seed before the fix).
func TestAsyncWANNoSplitGossipEntries(t *testing.T) {
	const seed = 1
	h := newHarness(t, smr.ModeAsync, seed, func(cfg *Config) {
		cfg.DisableShuffle = true
		cfg.EvictAfter = time.Hour
		cfg.RequestTimeout = 2 * time.Second
	})
	h.net = simnet.New(simnet.Config{Seed: seed, Latency: simnet.WANLatency(4)})
	nodes := h.bootstrapSystem(smr.ModeAsync, 26, 240*time.Second)
	h.net.Run(h.net.Now() + 30*time.Second)
	if groups := len(h.groupsOf()); groups < 5 {
		t.Fatalf("%d vgroups, want at least 5: too few for paths of different length", groups)
	}
	const bcasts = 12
	for i := 0; i < bcasts; i++ {
		if err := nodes[(5*i)%len(nodes)].BroadcastWith([]byte(fmt.Sprintf("wan-%d", i)), BroadcastOpts{}); err != nil {
			t.Fatal(err)
		}
		h.net.Run(h.net.Now() + 2*time.Second)
	}
	h.net.Run(h.net.Now() + 30*time.Second)
	for _, n := range nodes {
		id := n.cfg.Identity.ID
		if len(h.delivered[id]) != bcasts {
			t.Errorf("node %v delivered %d of %d broadcasts", id, len(h.delivered[id]), bcasts)
		}
		n.inbox.Pending(func(src group.Key, kind group.Kind, votes int) {
			if kind != kindGossip {
				return
			}
			// Known exactly: lookupComp's nearby-epoch fallback answers with
			// another epoch's members, whose majority these votes need not be.
			if comp, ok := n.comps[src]; ok && votes >= comp.Majority() {
				t.Errorf("node %v holds a gossip message from %v with %d votes (majority %d) that was never accepted",
					id, src, votes, comp.Majority())
			}
		})
	}
}
