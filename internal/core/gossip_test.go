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

// drainGroupSends closes n's open egress batches, runs its round tick, moves
// its clock on one relay lag at a time while that left a batch parked — a
// relayed copy, or a second speaker's turn — so that all of it leaves, and
// takes everything its captured environment (memberNode) was sent — in
// ModeSync group messages leave only at the tick.
func drainGroupSends(n *Node) []fakeSend {
	n.egress.FlushAll()
	n.egress.FlushDeferred()
	env := n.env.(*fakeEnv)
	for n.egress.Parked() > 0 {
		env.now += n.cfg.RoundDuration / relayLagPerRound
		n.Timer(0, egressFlushTimer{})
	}
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
// node would address. It counts whether it was heard before the delivery, and
// the copy is never queued, or after it and before the round's flush, and the
// queued copy is withdrawn as its batch leaves (Stats.GossipWithdrawn). Forward
// is asked about the link either way.
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
				for _, late := range []bool{false, true} {
					when := "heard before delivery"
					if late {
						when = "heard before the flush"
					}
					n, _ := memberNode(t, 4, B, X)
					n.cfg.Mode = mode
					n.st.nbrs.Set(overlay.Link{Cycle: 1, Dir: overlay.Pred}, K.Clone())
					n.learnComp(K)
					var asked []ids.GroupID
					n.cfg.Callbacks.Forward = func(_ Delivery, l ForwardLink) bool {
						asked = append(asked, l.Neighbor)
						return true
					}
					if !late {
						for _, hear := range tc.heard {
							hear(n)
						}
						if got := n.inbox.Votes(K, kindGossip, digest, digest); got != tc.counts {
							t.Fatalf("%v g=%d, %s: inbox counts %d votes of K, want %d", mode, g, tc.name, got, tc.counts)
						}
					}
					n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, Payload: payload, Digest: digest})
					if late {
						for _, hear := range tc.heard {
							hear(n)
						}
					}
					sent := gossipSentBy(t, n)
					if _, toK := sent[K.Key()]; toK != tc.toK {
						t.Errorf("%v g=%d f=%d, %s %s: copy toward K sent = %v, want %v", mode, g, f, tc.name, when, toK, tc.toK)
					}
					if len(sent) > 1 || (len(sent) == 1 && !tc.toK) {
						t.Errorf("%v g=%d, %s %s: copies toward %v, want none but K's", mode, g, tc.name, when, sent)
					}
					withdrawn := uint64(0)
					if late && !tc.toK {
						withdrawn = 1
					}
					if got := n.Stats().GossipWithdrawn; got != withdrawn {
						t.Errorf("%v g=%d, %s %s: %d item-links withdrawn as their batch left, want %d", mode, g, tc.name, when, got, withdrawn)
					}
					if !slices.Contains(asked, K.GroupID) || !slices.Contains(asked, X.GroupID) {
						t.Errorf("%v g=%d, %s %s: Forward was asked about %v, want every link, skipped or not", mode, g, tc.name, when, asked)
					}
					if got := n.inbox.Votes(K, kindGossip, digest, digest); got != 0 {
						t.Errorf("%v g=%d, %s %s: %d votes of K still held after the link was settled", mode, g, tc.name, when, got)
					}
				}
			}
		}
	}
}

// TestRelayPayloadWithheldFromHolder pins the member and vgroup rules on a
// relayed hop. Every member of B accepts a broadcast from X and forwards it to
// K. Member j of K has voted it, so j delivered it — whether j's vote reached
// B's member before its own delivery (the inbox seeds the holders record) or
// after it and before the relayed copy left (the record takes the copy
// observeCopy turns away). Voted under K's key, the vote is the vgroup rule's:
// some correct member of K holds the broadcast, so every member of K gets
// the digest alone from its RelaySender. Voted under another composition j is
// a member of (K's previous epoch), it is the member rule's alone: j's
// RelaySender sends j the digest, and every other member of K still gets the
// bytes once. Every member of K gets a vote from every member of B, and each
// RelaySender counts the payloads it withheld.
func TestRelayPayloadWithheldFromHolder(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6, 7)
	X := testComp(2, 2, 11, 12, 13)
	K := testComp(5, 3, 21, 22, 23, 24, 25)
	Kold := testComp(5, 2, 21, 22, 23, 24)
	payload, digest := gossipOf("held by one member of K")
	const j = 1
	holder := K.Members[j].ID
	for _, under := range []group.Composition{K, Kold} {
		for _, late := range []bool{false, true} {
			full, votes := map[ids.NodeID]int{}, map[ids.NodeID]int{}
			for _, m := range B.Members {
				n, _ := memberNode(t, m.ID, B, K)
				n.learnComp(X)
				n.learnComp(Kold)
				vote := func() {
					n.Receive(holder, group.GroupMsg{SrcGroup: under.GroupID, SrcEpoch: under.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
						Kind: kindGossip, MsgID: digest, PayloadDigest: digest})
				}
				if !late {
					vote()
				}
				n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, MsgID: digest, Payload: payload, Digest: digest})
				if late {
					vote()
				}
				for to, carried := range gossipSentBy(t, n)[K.Key()] {
					votes[to]++
					if carried {
						full[to]++
					}
				}
				want := uint64(0)
				for i, member := range K.Members {
					if B.Members[group.RelaySender(B, K, i)].ID == m.ID && (under.Key() == K.Key() || member.ID == holder) {
						want++
					}
				}
				if got := n.Stats().PayloadsWithheld; got != want {
					t.Errorf("vote under %v, late=%v: member %v of B counts %d payloads withheld, want %d", under.Key(), late, m.ID, got, want)
				}
			}
			for _, member := range K.Members {
				want := 1
				if under.Key() == K.Key() || member.ID == holder {
					want = 0
				}
				if votes[member.ID] != B.N() || full[member.ID] != want {
					t.Errorf("vote under %v, late=%v: member %v of K got %d payloads in %d votes, want %d in %d",
						under.Key(), late, member.ID, full[member.ID], votes[member.ID], want, B.N())
				}
			}
		}
	}
}

// TestHoldersRecordBounded: the holders record keeps a vote only from a member
// of the composition it names, at most maxHeldVotes of them for a digest, and at
// most maxHeldDigests digests — those with copies queued or parked. A digest's
// record outlives the round tick while its relayed copy is parked, and goes
// when the copy leaves. A flood of turned-away copies from non-member IDs
// under K's key records nothing and withdraws nothing: K still gets this
// member's copy.
func TestHoldersRecordBounded(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6, 7)
	X := testComp(2, 2, 11, 12, 13)
	K := testComp(5, 3, 21, 22, 23)
	// The member of B that relays to K's first member parks a copy per digest.
	n, _ := memberNode(t, B.Members[group.RelaySender(B, K, 0)].ID, B, K)
	n.learnComp(X)
	accept := func(data string) crypto.Digest {
		payload, digest := gossipOf(data)
		n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, MsgID: digest, Payload: payload, Digest: digest})
		return digest
	}
	digest := accept("flooded")
	copyFrom := func(from ids.NodeID, src group.Key) {
		n.Receive(from, group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
			Kind: kindGossip, MsgID: digest, PayloadDigest: digest})
	}
	for id := ids.NodeID(1000); id < 1000+4*maxHeldVotes; id++ {
		copyFrom(id, K.Key())
	}
	if got := len(n.holders[digest].held()); got != 0 {
		t.Errorf("non-members' copies left %d votes in the record, want none", got)
	}

	members := []uint64{200, 201, 202, 203, 204, 205, 206, 207}
	for g := 0; g < 2*maxHeldVotes/len(members); g++ {
		c := testComp(ids.GroupID(100+g), 1, members...)
		n.learnComp(c)
		for _, m := range c.Members {
			copyFrom(m.ID, c.Key())
		}
	}
	if got := len(n.holders[digest].held()); got != maxHeldVotes {
		t.Errorf("members of many vgroups left %d votes in the record, want its cap %d", got, maxHeldVotes)
	}
	if sent := gossipSentBy(t, n)[K.Key()]; len(sent) != K.N() || !sent[K.Members[0].ID] || n.Stats().GossipWithdrawn != 0 {
		t.Errorf("after the floods: copies toward K %v, %d withdrawn; want one to every member, the bytes to %v, none withdrawn",
			sent, n.Stats().GossipWithdrawn, K.Members[0].ID)
	}

	for i := 0; i < maxHeldDigests+8; i++ {
		accept(fmt.Sprintf("round-%d", i))
	}
	if got := len(n.holders); got != maxHeldDigests {
		t.Errorf("a round of deliveries left %d digests in the record, want its cap %d", got, maxHeldDigests)
	}
	n.handleTick()
	if got, parked := len(n.holders), n.egress.Parked(); got != maxHeldDigests || parked == 0 {
		t.Errorf("the round tick left %d digests in the record and %d copies parked, want %d and some", got, parked, maxHeldDigests)
	}
	drainGroupSends(n)
	if got := len(n.holders); got != 0 {
		t.Errorf("the parked copy's leaving left %d digests in the record, want none", got)
	}
}

// TestHoldersRecordOutlivesTheTick is the ModeAsync side of the record's
// lifetime. This member's vote toward K waits in an open adaptive window when
// the round tick comes; f+1 members of K vote the broadcast after the tick and
// before the window closes. The record lives until the vote leaves, so the
// vote is withdrawn as its batch closes instead of leaving after all.
func TestHoldersRecordOutlivesTheTick(t *testing.T) {
	B := testComp(3, 1, 1, 2, 3, 4)
	K := testComp(5, 1, 21, 22, 23, 24)
	n, env := memberNode(t, 1, B, K, func(c *Config) { c.Mode = smr.ModeAsync })
	bcast := func(data string) crypto.Digest {
		o := bcastOp{BcastID: crypto.Hash([]byte(data)), Origin: 1, Data: []byte(data)}
		n.applyBcast(o)
		return crypto.Hash(encodePayload(gossipPayload{BcastID: o.BcastID, Origin: o.Origin, Data: o.Data}))
	}
	// Two broadcasts at one instant: the first leaves at once, the second
	// opens a window toward K, which the third joins.
	bcast("leaves at once")
	bcast("opens the window")
	digest := bcast("waits in the window")
	if dests, items := n.egress.Pending(); dests != 1 || items != 2 {
		t.Fatalf("pending = %d dests / %d items, want 1/2", dests, items)
	}
	n.handleTick()
	for _, m := range K.Members[:smr.ModeAsync.F(K.N())+1] {
		n.Receive(m.ID, group.GroupMsg{SrcGroup: K.GroupID, SrcEpoch: K.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
			Kind: kindGossip, MsgID: digest, PayloadDigest: digest})
	}
	env.sent = nil
	env.now += n.cfg.EgressMaxFlushWindow
	n.Timer(0, egressFlushTimer{})
	if dests, items := n.egress.Pending(); dests != 0 || items != 0 {
		t.Fatalf("the window left %d dests / %d items pending, want none", dests, items)
	}
	for _, s := range env.sent {
		for _, m := range gossipCopies(t, s.msg) {
			if m.MsgID == digest {
				t.Errorf("the vote toward K left to %v after f+1 of K voted, want it withdrawn", s.to)
			}
		}
	}
	if got := n.Stats().GossipWithdrawn; got != 1 {
		t.Errorf("%d item-links withdrawn, want 1", got)
	}
	if got := len(n.holders); got != 0 {
		t.Errorf("%d digests left in the record once every copy left, want none", got)
	}
}

// turnRig is a set of ModeSync members on captured environments that share
// one clock: the tick, then the relay lags, with every copy handed at once to
// the member of the rig it was sent to.
type turnRig struct {
	t     *testing.T
	nodes map[ids.NodeID]*Node
	now   time.Duration // the rig's clock, the tick's time until step runs
	lag   time.Duration // one relay lag
}

// join builds the members of comp, with nbr as their neighbor and X known,
// and, if accept is set, has each accept digest from X.
func (r *turnRig) join(comp, nbr, X group.Composition, payload []byte, digest crypto.Digest, accept bool) {
	for _, m := range comp.Members {
		n, env := memberNode(r.t, m.ID, comp, nbr)
		n.learnComp(X)
		r.now, r.lag = env.now, n.cfg.RoundDuration/relayLagPerRound
		if accept {
			n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, MsgID: digest, Payload: payload, Digest: digest})
		}
		r.nodes[m.ID] = n
	}
}

// step runs the tick at every member (lags == 0) or moves the clock lags
// relay lags on and fires every egress timer, then hands what left to its
// recipients and returns it by sender.
func (r *turnRig) step(lags int) map[ids.NodeID][]fakeSend {
	r.now += time.Duration(lags) * r.lag
	out := map[ids.NodeID][]fakeSend{}
	for id, n := range r.nodes {
		env := n.env.(*fakeEnv)
		env.now = r.now
		if lags == 0 {
			n.egress.FlushDeferred()
		} else {
			n.Timer(0, egressFlushTimer{})
		}
		out[id], env.sent = env.sent, nil
	}
	for from, sent := range out {
		for _, s := range sent {
			if to := r.nodes[s.to]; to != nil {
				to.env.(*fakeEnv).now = r.now
				to.Receive(from, s.msg)
			}
		}
	}
	return out
}

// TestCrossingCopyGoesDigestOnly: two ModeSync neighbors B and K both accept a
// broadcast from X in one round, so at the tick each would send the other
// vgroup a vote from every member — and, toward the members it is the
// RelaySender of, the bytes, which that vgroup already holds. They take turns
// by GroupID. B, the lower, speaks first: at the tick every member of K gets
// B's vote from all but its RelaySender in B, whose copy parks for two lags.
// K speaks second: its batch waits one lag, by when B's votes make it
// redundant under the link rule, so it is withdrawn from the lean copies, and
// each member of B gets exactly one vote from K, from its RelaySender there,
// digest-only. That vote makes B's parked copies go digest-only too (the
// vgroup rule). No full copy crosses, every member of K still gets a vote from
// every member of B, and each relayed payload counts as withheld.
func TestCrossingCopyGoesDigestOnly(t *testing.T) {
	X := testComp(2, 1, 11, 12, 13)
	B := testComp(3, 1, 1, 2, 3, 4)
	K := testComp(5, 1, 21, 22, 23)
	payload, digest := gossipOf("crossing")
	r := &turnRig{t: t, nodes: map[ids.NodeID]*Node{}}
	r.join(B, K, X, payload, digest, true)
	r.join(K, B, X, payload, digest, true)

	votes, full := map[[2]ids.NodeID]int{}, 0 // per (sender, recipient)
	count := func(when string, sends map[ids.NodeID][]fakeSend, wantFrom group.Composition) {
		for from, sent := range sends {
			for _, s := range sent {
				for _, m := range gossipCopies(t, s.msg) {
					if !wantFrom.Contains(from) {
						t.Errorf("%s: %v sent a vote to %v, want votes from %v alone", when, from, s.to, wantFrom.Key())
					}
					votes[[2]ids.NodeID{from, s.to}]++
					if m.Payload != nil {
						full++
					}
				}
			}
		}
	}
	count("the tick", r.step(0), B)
	count("one lag on", r.step(1), K)
	count("two lags on", r.step(1), B)
	if full != 0 {
		t.Errorf("%d gossip copies between B and K carried the payload, want none: both held it", full)
	}
	for i, b := range B.Members {
		server := K.Members[group.RelaySender(K, B, i)].ID
		for _, k := range K.Members {
			if got := votes[[2]ids.NodeID{b.ID, k.ID}]; got != 1 {
				t.Errorf("member %v of K got %d votes from %v of B, want 1", k.ID, got, b.ID)
			}
			if got, want := votes[[2]ids.NodeID{k.ID, b.ID}], map[bool]int{true: 1}[k.ID == server]; got != want {
				t.Errorf("member %v of B got %d votes from %v of K, want %d: one from its RelaySender %v alone", b.ID, got, k.ID, want, server)
			}
		}
	}
	withheld, withdrawn := uint64(0), uint64(0)
	for _, n := range r.nodes {
		withheld += n.Stats().PayloadsWithheld
		withdrawn += n.Stats().GossipWithdrawn
		if got := n.egress.Parked(); got != 0 {
			t.Errorf("%v still has %d batches parked two lags after the tick", n.cfg.Identity.ID, got)
		}
	}
	if want := uint64(B.N() + K.N()); withheld != want {
		t.Errorf("%d relayed payloads withheld, want one per member of either vgroup, %d", withheld, want)
	}
	if want := uint64(K.N()); withdrawn != want {
		t.Errorf("%d item-links withdrawn, want one at each member of K, %d", withdrawn, want)
	}
}

// TestSecondSpeakerServesAVgroupThatWaits: K accepts a broadcast from X in a
// round in which its lower neighbor B has not delivered it. K speaks second,
// so nothing leaves toward B at the tick; one lag on, with no vote from B to
// withdraw it, K's batch leaves whole — every member of B gets a vote from
// every member of K and the bytes from its RelaySender there — and every
// member of B delivers the broadcast exactly once, one lag after the tick.
func TestSecondSpeakerServesAVgroupThatWaits(t *testing.T) {
	X := testComp(2, 1, 11, 12, 13)
	B := testComp(3, 1, 1, 2, 3, 4)
	K := testComp(5, 1, 21, 22, 23)
	payload, digest := gossipOf("B waits")
	r := &turnRig{t: t, nodes: map[ids.NodeID]*Node{}}
	r.join(B, K, X, payload, digest, false)
	r.join(K, B, X, payload, digest, true)
	delivered := map[ids.NodeID][]time.Duration{}
	for _, m := range B.Members {
		id, env := m.ID, r.nodes[m.ID].env.(*fakeEnv)
		r.nodes[id].cfg.Callbacks.Deliver = func(Delivery) { delivered[id] = append(delivered[id], env.now) }
	}
	tick := r.now
	for from, sent := range r.step(0) {
		if len(sent) != 0 {
			t.Errorf("at the tick %v sent %d messages, want none: K's batch waits its turn", from, len(sent))
		}
	}
	votes, full := map[ids.NodeID]int{}, map[ids.NodeID]int{}
	for _, sent := range r.step(1) {
		for _, s := range sent {
			for _, m := range gossipCopies(t, s.msg) {
				votes[s.to]++
				if m.Payload != nil {
					full[s.to]++
				}
			}
		}
	}
	for _, m := range B.Members {
		if votes[m.ID] != K.N() || full[m.ID] != 1 {
			t.Errorf("member %v of B got %d payloads in %d votes, want 1 in %d", m.ID, full[m.ID], votes[m.ID], K.N())
		}
		if got := delivered[m.ID]; len(got) != 1 || got[0] != tick+r.lag {
			t.Errorf("member %v of B delivered at %v, want once, at the tick %v plus one lag", m.ID, got, tick)
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
	// only in the benchmark: 2.16 copies of the payload cross the wire per
	// delivery on this seed (2.66 while only a member's own vote withheld its
	// bytes and nothing waited for a vote, 2.97 while a member whose vote was
	// heard still got the bytes, 4.41 with f+1 payload senders on every hop,
	// 4.97 while a vgroup heard voting still got the copy, 7.46 without the
	// f+1 payload senders).
	perDelivery := float64(fullCopies) / float64(bcasts*len(nodes))
	t.Logf("%.2f full-payload gossip copies per delivery, %.2f copies", perDelivery, float64(copies)/float64(bcasts*len(nodes)))
	if perDelivery > 2.8 {
		t.Errorf("%.2f full-payload gossip copies per delivery, want at most 2.8", perDelivery)
	}
	// Vote multiplicity, the same way for the link rule: 9.49 gossip copies,
	// with or without the payload, per delivery on this seed (10.98 while the
	// round tick cleared the holders record under votes still queued, 12.07
	// when only the accepted-from composition is skipped, 14.50 when only the
	// f+1 count is consulted, 15.69 when every link gets a vote, as before the
	// rule).
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
		// Every copy has left, so no holders record is left either.
		if held, parked := len(n.holders), n.egress.Parked(); held+parked != 0 {
			t.Errorf("node %v keeps %d holders records and %d parked copies once every copy left, want none", id, held, parked)
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
