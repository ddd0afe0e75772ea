package core

// The gossip hop as the group-message layer sees it: what one vgroup's
// members forward for a broadcast is the same bytes whichever path reached
// each of them first, and what the application is handed is its own.

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
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

// drainGroupSends closes n's open egress batches, runs its round tick and
// takes everything its captured environment (memberNode) was sent — in
// ModeSync group messages leave only at the tick.
func drainGroupSends(n *Node) []fakeSend {
	n.egress.FlushAll()
	n.egress.FlushDeferred()
	env := n.env.(*fakeEnv)
	out := env.sent
	env.sent = nil
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
// mode) and returns, per destination composition and per member of it,
// whether n's gossip copy toward that member carried the payload.
func gossipSentBy(t *testing.T, n *Node) map[group.Key]map[ids.NodeID]bool {
	t.Helper()
	out := map[group.Key]map[ids.NodeID]bool{}
	for _, s := range drainGroupSends(n) {
		for _, m := range gossipCopies(t, s.msg) {
			dst, full := group.Key{GroupID: m.DstGroup, Epoch: m.DstEpoch}, m.Payload != nil
			if out[dst] == nil {
				out[dst] = map[ids.NodeID]bool{}
			}
			if was, seen := out[dst][s.to]; seen && was != full {
				t.Fatalf("node %v sent %v of %v copies with and without the payload", n.cfg.Identity.ID, s.to, dst)
			}
			out[dst][s.to] = full
		}
	}
	return out
}

// TestGossipPayloadSendersAreTheFirstFPlusOne pins the origin hop's payload
// rule at its edge, for every vgroup size the engine runs with and both fault
// models: the member at index f attaches the payload for every member of the
// neighbor, the member at index f+1 votes the digest — and every member votes.
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
				n, _ := memberNode(t, m.ID, comp, nbr)
				n.cfg.Mode = mode
				originGossip(n, Delivery{BcastID: crypto.Hash([]byte("rule-1")), Origin: 1, Data: []byte("bytes")})
				sent := gossipSentBy(t, n)[nbr.Key()]
				if len(sent) != nbr.N() {
					t.Fatalf("%v g=%d: member at index %d voted to %d of %d members", mode, g, idx, len(sent), nbr.N())
				}
				for to, full := range sent {
					if want := idx <= f; full != want {
						t.Errorf("%v g=%d f=%d: member at index %d attached the payload toward %v = %v, want %v", mode, g, f, idx, to, full, want)
					}
				}
			}
		}
	}
}

// TestGossipRelayedHopSendsOnePayloadPerMember pins the relayed hop's payload
// rule for every pair of vgroup sizes the engine runs with: when all members
// of a vgroup forward a broadcast accepted from another, each member of the
// neighbor gets one copy with the payload — from the member RelaySender names
// — and a digest-only vote from every other member.
func TestGossipRelayedHopSendsOnePayloadPerMember(t *testing.T) {
	X := testComp(9, 4, 81, 82, 83)
	payload := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte("relayed")), Origin: 81, Data: []byte("bytes")})
	for g := 3; g <= 8; g++ {
		for k := 3; k <= 8; k++ {
			B := testComp(3, uint64(g), 1, 2, 3, 4, 5, 6, 7, 8)
			B.Members = B.Members[:g]
			K := testComp(5, uint64(k), 21, 22, 23, 24, 25, 26, 27, 28)
			K.Members = K.Members[:k]
			full, votes := map[ids.NodeID][]ids.NodeID{}, map[ids.NodeID]int{}
			for _, m := range B.Members {
				n, _ := memberNode(t, m.ID, B, K)
				n.learnComp(X)
				n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, Payload: payload, Digest: crypto.Hash(payload)})
				for to, carried := range gossipSentBy(t, n)[K.Key()] {
					votes[to]++
					if carried {
						full[to] = append(full[to], m.ID)
					}
				}
			}
			for j, member := range K.Members {
				want := B.Members[group.RelaySender(B, K, j)].ID
				if votes[member.ID] != g || len(full[member.ID]) != 1 || full[member.ID][0] != want {
					t.Errorf("g=%d k=%d: member %v of K got %d votes, the payload from %v; want %d votes, the payload from %v alone",
						g, k, member.ID, votes[member.ID], full[member.ID], g, want)
				}
			}
		}
	}
}

// TestGossipItemsSpendNoBytesOnMsgIDs: a gossip message is identified by its
// payload digest, so its items ride a carrier in the derived form. Two votes
// without the bytes, from a member past index f, are a frame of two digests
// and its headers; a receiver reads each back as MsgID = PayloadDigest.
func TestGossipItemsSpendNoBytesOnMsgIDs(t *testing.T) {
	comp, nbr := testComp(1, 1, 1, 2, 3, 4, 5), testComp(2, 1, 91, 92, 93)
	n, _ := memberNode(t, 5, comp, nbr)
	for _, data := range []string{"one", "two"} {
		originGossip(n, Delivery{BcastID: crypto.Hash([]byte(data)), Origin: 1, Data: []byte(data)})
	}
	sends := drainGroupSends(n)
	if len(sends) != nbr.N() {
		t.Fatalf("%d sends, want one carrier per member of the neighbor", len(sends))
	}
	carrier := sends[0].msg.(group.GroupMsg)
	if got, want := len(carrier.Payload), 5+6+2*crypto.DigestSize; carrier.Kind != kindBatch || got > want {
		t.Errorf("kind %d carrier of %d bytes, want a batch of at most %d: two digests and the frame's headers", carrier.Kind, got, want)
	}
	for _, m := range gossipCopies(t, carrier) {
		if m.MsgID != m.PayloadDigest || m.Payload != nil {
			t.Errorf("item unpacked with MsgID %x, digest %x, payload %v", m.MsgID[:4], m.PayloadDigest[:4], m.Payload != nil)
		}
	}
}

// TestGossipPayloadStaysOffTheLinkItCameFrom pins the link rule where a
// majority voted, per destination member. B has three neighbors; its members
// accept a broadcast from X@2. Toward exactly X@2 they send nothing at all;
// each member of the other two gets one copy with the bytes and a vote from
// every member of B; and had the acceptance come from X at any other epoch than
// the one B knows, X would be served the same way — the members of X@2 need not
// have been in it.
func TestGossipPayloadStaysOffTheLinkItCameFrom(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6, 7)
	X := testComp(2, 2, 11, 12, 13)
	Y := testComp(5, 1, 21, 22, 23)
	Z := testComp(6, 4, 31, 32, 33)
	build := func(self ids.NodeID) *Node {
		n, _ := memberNode(t, self, B, X)
		n.st.nbrs.Set(overlay.Link{Cycle: 0, Dir: overlay.Pred}, Y.Clone())
		n.st.nbrs.Set(overlay.Link{Cycle: 1, Dir: overlay.Succ}, Z.Clone())
		n.learnComp(Y)
		n.learnComp(Z)
		return n
	}
	accept := func(n *Node, from group.Key, data string) []byte {
		payload := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte(data)), Origin: 1, Data: []byte(data)})
		n.handleGossip(group.Accepted{Src: from, Kind: kindGossip, Payload: payload, Digest: crypto.Hash(payload)})
		return payload
	}
	// served forwards one acceptance at every member of B and returns, per
	// destination, how many copies with the payload each member got and how
	// many votes.
	served := func(from group.Key, data string) map[group.Key]map[ids.NodeID][2]int {
		out := map[group.Key]map[ids.NodeID][2]int{}
		for _, m := range B.Members {
			n := build(m.ID)
			accept(n, from, data)
			for dst, sent := range gossipSentBy(t, n) {
				if out[dst] == nil {
					out[dst] = map[ids.NodeID][2]int{}
				}
				for to, full := range sent {
					c := out[dst][to]
					if full {
						c[0]++
					}
					c[1]++
					out[dst][to] = c
				}
			}
		}
		return out
	}
	onePerMember := func(what string, got map[ids.NodeID][2]int, dst group.Composition) {
		t.Helper()
		for _, m := range dst.Members {
			if c := got[m.ID]; c != [2]int{1, B.N()} {
				t.Errorf("%s: member %v of %v got %d payloads in %d votes, want 1 in %d", what, m.ID, dst.Key(), c[0], c[1], B.N())
			}
		}
	}

	got := served(X.Key(), "from X@2")
	if _, toX := got[X.Key()]; toX || len(got) != 2 {
		t.Errorf("accepted from %v: copies toward %v, want none toward it", X.Key(), slices.Collect(maps.Keys(got)))
	}
	onePerMember("accepted from X@2", got[Y.Key()], Y)
	onePerMember("accepted from X@2", got[Z.Key()], Z)

	for _, epoch := range []uint64{1, 3} {
		got := served(group.Key{GroupID: X.GroupID, Epoch: epoch}, "from X at another epoch")
		for _, c := range []group.Composition{X, Y, Z} {
			onePerMember(fmt.Sprintf("accepted from X@%d, X known at epoch %d", epoch, X.Epoch), got[c.Key()], c)
		}
	}

	// The echoes are turned away without an entry: Y's flood back, every member
	// voting and sending the bytes — also from an epoch of Y this node has heard
	// of but its neighbor table has not caught up with, or one it never heard
	// of. And what the inbox held before the delivery, Z's early votes, is
	// released with it. Nothing is left but the digest in the delivered index.
	n := build(4)
	Y2, Y3 := testComp(5, 2, 21, 22, 24), testComp(5, 3, 21, 24, 25)
	n.learnComp(Y2)
	payload, digest := gossipOf("echoed")
	vote := func(from ids.NodeID, src group.Composition, payload []byte) {
		n.Receive(from, group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
			Kind: kindGossip, MsgID: digest, PayloadDigest: digest, Payload: payload})
	}
	vote(Z.Members[0].ID, Z, nil)
	accept(n, X.Key(), "echoed")
	gossipSentBy(t, n)
	for _, echoer := range []group.Composition{X, Y2, Y3, Z} {
		for _, m := range echoer.Members {
			vote(m.ID, echoer, payload)
		}
	}
	if got := n.inbox.Len(); got != 0 || !n.delivered.has(digest) {
		t.Errorf("inbox remembers %d messages, digest delivered %v: want no entry, the digest in the index", got, n.delivered.has(digest))
	}
	n.inbox.Pending(func(src group.Key, _ group.Kind, votes int) {
		t.Errorf("the echo from %v is collecting votes (%d)", src, votes)
	})
}

// TestReusedBcastIDDeliveredAlike: exactly-once is per broadcast payload. An
// origin that reuses one BcastID for two Data makes two payloads and two
// digests. Two correct nodes fed them in opposite orders, each twice, deliver
// the same: both, once each — not whichever reached each node first.
func TestReusedBcastIDDeliveredAlike(t *testing.T) {
	B, X := testComp(3, 1, 4, 5, 6), testComp(2, 1, 11, 12, 13)
	id := crypto.Hash([]byte("one BcastID"))
	first := encodePayload(gossipPayload{BcastID: id, Origin: 11, Data: []byte("first")})
	second := encodePayload(gossipPayload{BcastID: id, Origin: 11, Data: []byte("second")})
	got := map[ids.NodeID][]string{}
	for _, node := range []struct {
		self  ids.NodeID
		order [][]byte
	}{{4, [][]byte{first, second}}, {5, [][]byte{second, first}}} {
		self, order := node.self, node.order
		n, _ := memberNode(t, self, B, X)
		n.cfg.Callbacks.Deliver = func(d Delivery) { got[self] = append(got[self], string(d.Data)) }
		for range 2 {
			for _, p := range order {
				n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, MsgID: crypto.Hash(p), Digest: crypto.Hash(p), Payload: p})
			}
		}
		slices.Sort(got[self])
	}
	if want := []string{"first", "second"}; !slices.Equal(got[4], want) || !slices.Equal(got[5], want) {
		t.Errorf("node 4 delivered %q, node 5 %q: want %q at both", got[4], got[5], want)
	}
}

// TestGossipSkipsLinkOnlyAtFPlusOneVotes pins the link rule at its edge, for
// every neighbor size the engine runs with and both fault models. B's member
// accepts a broadcast from X while K, its other neighbor, has been voting it:
// with f of K's members heard, one correct member of K is not yet known to
// hold it and K gets this member's copy; with f+1 it gets none. A vote counts
// only if it is for this digest, from a member of K, under the epoch of K this
// node would address. Forward is asked about the link either way.
func TestGossipSkipsLinkOnlyAtFPlusOneVotes(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6, 7)
	X := testComp(2, 2, 11, 12, 13)
	payload := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte("edge")), Origin: 1, Data: []byte("bytes")})
	digest := crypto.Hash(payload)
	other := crypto.Hash([]byte("another broadcast"))
	for _, mode := range []smr.Mode{smr.ModeSync, smr.ModeAsync} {
		for g := 4; g <= 8; g++ {
			members := make([]uint64, g)
			for i := range members {
				members[i] = uint64(21 + i)
			}
			K := testComp(5, 3, members...)
			f := mode.F(g)
			vote := func(from ids.NodeID, epoch uint64, d crypto.Digest) func(*Node) {
				return func(n *Node) {
					n.routeGroupMsg(from, group.GroupMsg{SrcGroup: K.GroupID, SrcEpoch: epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
						Kind: kindGossip, MsgID: d, PayloadDigest: d})
				}
			}
			votes := func(count int, epoch uint64, d crypto.Digest) []func(*Node) {
				var out []func(*Node)
				for _, m := range K.Members[:count] {
					out = append(out, vote(m.ID, epoch, d))
				}
				return out
			}
			for _, tc := range []struct {
				name   string
				heard  []func(*Node)
				toK    bool
				counts int
			}{
				{"f votes", votes(f, K.Epoch, digest), true, f},
				{"f+1 votes", votes(f+1, K.Epoch, digest), false, f + 1},
				{"f votes and an outsider's", append(votes(f, K.Epoch, digest), vote(99, K.Epoch, digest)), true, f},
				{"f votes and one for another digest", append(votes(f, K.Epoch, digest), vote(K.Members[f].ID, K.Epoch, other)), true, f},
				{"f+1 votes under another epoch of K", votes(f+1, K.Epoch+1, digest), true, 0},
			} {
				n, _ := memberNode(t, 4, B, X)
				n.cfg.Mode = mode
				n.st.nbrs.Set(overlay.Link{Cycle: 1, Dir: overlay.Pred}, K.Clone())
				n.learnComp(K)
				var asked []ids.GroupID
				n.cfg.Callbacks.Forward = func(_ Delivery, l ForwardLink) bool {
					asked = append(asked, l.Neighbor)
					return true
				}
				for _, hear := range tc.heard {
					hear(n)
				}
				if got := n.inbox.Votes(K, kindGossip, digest, digest); got != tc.counts {
					t.Fatalf("%v g=%d, %s: inbox counts %d votes of K, want %d", mode, g, tc.name, got, tc.counts)
				}
				n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, Payload: payload, Digest: digest})
				sent := gossipSentBy(t, n)
				if _, toK := sent[K.Key()]; toK != tc.toK {
					t.Errorf("%v g=%d f=%d, %s: copy toward K enqueued = %v, want %v", mode, g, f, tc.name, toK, tc.toK)
				}
				if len(sent) > 1 || (len(sent) == 1 && !tc.toK) {
					t.Errorf("%v g=%d, %s: copies toward %v, want none but K's", mode, g, tc.name, sent)
				}
				if !slices.Contains(asked, K.GroupID) || !slices.Contains(asked, X.GroupID) {
					t.Errorf("%v g=%d, %s: Forward was asked about %v, want every link, skipped or not", mode, g, tc.name, asked)
				}
				if got := n.inbox.Votes(K, kindGossip, digest, digest); got != 0 {
					t.Errorf("%v g=%d, %s: %d votes of K still held after the link was settled", mode, g, tc.name, got)
				}
			}
		}
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
// entries on this seed before the fix). The link and payload rules of
// forwardGossip are held to the same standard: echoes are settled, not parked.
func TestAsyncWANNoSplitGossipEntries(t *testing.T) {
	const seed = 1
	h := newHarness(t, smr.ModeAsync, seed, func(cfg *Config) {
		cfg.DisableShuffle = true
		cfg.EvictAfter = time.Hour
		cfg.RequestTimeout = 2 * time.Second
	})
	h.net = simnet.New(simnet.Config{Seed: seed, Latency: simnet.WANLatency(4)})
	copies, fullCopies := 0, 0
	h.wrapEnv = func(_ *Node, env actor.Env) actor.Env {
		return sendHook{Env: env, hook: func(msg actor.Message) actor.Message {
			for _, m := range gossipCopies(t, msg) {
				copies++
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
	// Payload multiplicity, so that losing the payload rules fails here and not
	// only in the benchmark: 2.97 copies of the payload cross the wire per
	// delivery on this seed (4.41 with f+1 payload senders on every hop, 4.97
	// while a vgroup heard voting still got the copy, 7.46 without the f+1
	// payload senders).
	if perDelivery := float64(fullCopies) / float64(bcasts*len(nodes)); perDelivery > 3.1 {
		t.Errorf("%.2f full-payload gossip copies per delivery, want at most 3.1", perDelivery)
	}
	// Vote multiplicity, the same way for the link rule: 10.98 gossip copies,
	// with or without the payload, per delivery on this seed (12.07 when only
	// the accepted-from composition is skipped, 14.50 when only the f+1 count
	// is consulted, 15.69 when every link gets a vote, as before the rule).
	if perDelivery := float64(copies) / float64(bcasts*len(nodes)); perDelivery > 11.5 {
		t.Errorf("%.2f gossip copies per delivery, want at most 11.5", perDelivery)
	}
	// Nothing here needs repair: lending covers every late copy.
	if pulls, caught := h.sum(func(s Stats) uint64 { return s.PullsSent }), h.sum(func(s Stats) uint64 { return s.CaughtUp }); pulls+caught != 0 {
		t.Errorf("%d pulls and %d catch-ups on a fault-free run, want none", pulls, caught)
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
			if comp, ok := n.comps.exact(src); ok && votes >= comp.Majority() {
				t.Errorf("node %v holds a gossip message from %v with %d votes (majority %d) that was never accepted",
					id, src, votes, comp.Majority())
			}
		})
	}
}
