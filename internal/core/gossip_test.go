package core

// The gossip hop as the group-message layer sees it: what one vgroup's
// members forward for a broadcast is the same bytes whichever path reached
// each of them first, and what the application is handed is its own.

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
	"time"

	"atum/internal/actor"
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

// gossipCopies returns the gossip copies one wire message holds: itself, or
// the gossip items of a group-addressed carrier.
func gossipCopies(t testing.TB, msg actor.Message) []group.GroupMsg {
	t.Helper()
	m, ok := msg.(group.GroupMsg)
	switch {
	case !ok:
		return nil
	case m.Kind == kindGossip:
		return []group.GroupMsg{m}
	case m.Kind != kindBatch || m.DstGroup == 0:
		return nil
	}
	inner, err := group.UnpackBatch(m)
	if err != nil {
		t.Fatalf("a node sent a carrier that does not unpack: %v", err)
	}
	var out []group.GroupMsg
	for _, im := range inner {
		if im.Kind == kindGossip {
			out = append(out, im)
		}
	}
	return out
}

// gossipSentBy drains what n sent (memberNode's captured environment, either
// mode) and returns, per destination composition, whether n's gossip copies
// toward it carried the payload. A member sends every member of one
// destination the same copy.
func gossipSentBy(t *testing.T, n *Node, env *fakeEnv) map[group.Key]bool {
	t.Helper()
	var msgs []actor.Message
	for _, q := range drainGroupSends(n) {
		msgs = append(msgs, q.msg)
	}
	for _, s := range env.sent {
		msgs = append(msgs, s.msg)
	}
	env.sent = nil
	out := map[group.Key]bool{}
	for _, msg := range msgs {
		for _, m := range gossipCopies(t, msg) {
			dst, full := group.Key{GroupID: m.DstGroup, Epoch: m.DstEpoch}, m.Payload != nil
			if was, seen := out[dst]; seen && was != full {
				t.Fatalf("node %v sent %v copies with and without the payload", n.cfg.Identity.ID, dst)
			}
			out[dst] = full
		}
	}
	return out
}

// TestGossipPayloadSendersAreTheFirstFPlusOne pins the first payload rule at
// its edge, for every vgroup size the engine runs with and both fault models:
// the member at index f attaches the payload, the member at index f+1 votes
// the digest — and every member votes.
func TestGossipPayloadSendersAreTheFirstFPlusOne(t *testing.T) {
	nbr := testComp(2, 1, 91, 92, 93)
	for _, mode := range []smr.Mode{smr.ModeSync, smr.ModeAsync} {
		for g := 4; g <= 8; g++ {
			members := make([]uint64, g)
			for i := range members {
				members[i] = uint64(i + 1)
			}
			comp := testComp(1, 1, members...)
			f := mode.F(g)
			for idx, m := range comp.Members {
				n, env := memberNode(t, m.ID, comp, nbr)
				n.cfg.Mode = mode
				originGossip(n, Delivery{BcastID: crypto.Hash([]byte("rule-1")), Origin: 1, Data: []byte("bytes")})
				full, voted := gossipSentBy(t, n, env)[nbr.Key()]
				if !voted {
					t.Fatalf("%v g=%d: member at index %d did not vote", mode, g, idx)
				}
				if want := idx <= f; full != want {
					t.Errorf("%v g=%d f=%d: member at index %d attached the payload = %v, want %v", mode, g, f, idx, full, want)
				}
			}
		}
	}
}

// TestGossipPayloadStaysOffTheLinkItCameFrom pins the second payload rule and
// the settling of echoes. B has three neighbors; its index-0 member accepts a
// broadcast from X@2. Toward exactly X@2 its copy is payload-less; toward the
// other two it carries the bytes; and had the acceptance come from X at any
// other epoch than the one B knows, X would get the bytes too — the members of
// X@2 need not have been in it.
func TestGossipPayloadStaysOffTheLinkItCameFrom(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6, 7)
	X := testComp(2, 2, 11, 12, 13)
	Y := testComp(5, 1, 21, 22, 23)
	Z := testComp(6, 4, 31, 32, 33)
	build := func() (*Node, *fakeEnv) {
		n, env := memberNode(t, 4, B, X)
		n.st.nbrs.Set(overlay.Link{Cycle: 0, Dir: overlay.Pred}, Y.Clone())
		n.st.nbrs.Set(overlay.Link{Cycle: 1, Dir: overlay.Succ}, Z.Clone())
		n.learnComp(Y)
		n.learnComp(Z)
		return n, env
	}
	accept := func(n *Node, from group.Key, data string) crypto.Digest {
		bcast := crypto.Hash([]byte(data))
		payload := encodePayload(gossipPayload{BcastID: bcast, Origin: 1, Data: []byte(data)})
		n.handleGossip(group.Accepted{Src: from, Kind: kindGossip, Payload: payload, Digest: crypto.Hash(payload)})
		return bcast
	}

	n, env := build()
	bcast := accept(n, X.Key(), "from X@2")
	got := gossipSentBy(t, n, env)
	if want := map[group.Key]bool{X.Key(): false, Y.Key(): true, Z.Key(): true}; !maps.Equal(got, want) {
		t.Errorf("accepted from %v: payload attached per destination = %v, want %v", X.Key(), got, want)
	}

	for _, epoch := range []uint64{1, 3} {
		n, env := build()
		accept(n, group.Key{GroupID: X.GroupID, Epoch: epoch}, "from X at another epoch")
		if got := gossipSentBy(t, n, env); !got[X.Key()] || !got[Y.Key()] || !got[Z.Key()] {
			t.Errorf("accepted from X@%d, X known at epoch %d: payload attached = %v, want everywhere", epoch, X.Epoch, got)
		}
	}

	// The echoes are settled: Y's flood back, every member voting and sending
	// the bytes, is turned away without an entry — also when Y has moved to an
	// epoch this node has heard of but its neighbor table has not caught up
	// with. Nothing but the settled records is left.
	n, env = build()
	Y2 := testComp(5, 2, 21, 22, 24)
	n.learnComp(Y2)
	bcast = accept(n, X.Key(), "echoed")
	gossipSentBy(t, n, env)
	payload := encodePayload(gossipPayload{BcastID: bcast, Origin: 1, Data: []byte("echoed")})
	for _, echoer := range []group.Composition{Y2, Z} {
		for _, m := range echoer.Members {
			n.Receive(m.ID, group.GroupMsg{SrcGroup: echoer.GroupID, SrcEpoch: echoer.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
				Kind: kindGossip, MsgID: gossipMsgID(bcast, echoer.Key(), B.GroupID), PayloadDigest: crypto.Hash(payload), Payload: payload})
		}
	}
	n.inbox.Pending(func(src group.Key, _ group.Kind, votes int) {
		t.Errorf("the echo from %v is collecting votes (%d): it was not settled", src, votes)
	})
	if got := n.inbox.Len(); got != 3 {
		t.Errorf("inbox remembers %d messages, want the three settled echoes", got)
	}
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
// entries on this seed before the fix). The payload rules of forwardGossip are
// held to the same standard: their digest-only echoes are settled, not parked.
func TestAsyncWANNoSplitGossipEntries(t *testing.T) {
	const seed = 1
	h := newHarness(t, smr.ModeAsync, seed, func(cfg *Config) {
		cfg.DisableShuffle = true
		cfg.EvictAfter = time.Hour
		cfg.RequestTimeout = 2 * time.Second
	})
	h.net = simnet.New(simnet.Config{Seed: seed, Latency: simnet.WANLatency(4)})
	fullCopies := 0
	h.wrapEnv = func(_ *Node, env actor.Env) actor.Env {
		return sendHook{Env: env, hook: func(msg actor.Message) actor.Message {
			for _, m := range gossipCopies(t, msg) {
				if m.Payload != nil {
					fullCopies++
				}
			}
			return msg
		}}
	}
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
	// Payload multiplicity, so that losing a payload rule fails here and not
	// only in the benchmark: 4.97 copies of the payload cross the wire per
	// delivery on this seed (6.58 without the no-way-back rule, 8.29 without
	// the f+1 rule, 10.81 with neither, as before both).
	if perDelivery := float64(fullCopies) / float64(bcasts*len(nodes)); perDelivery > 5.5 {
		t.Errorf("%.2f full-payload gossip copies per delivery, want at most 5.5", perDelivery)
	}
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
