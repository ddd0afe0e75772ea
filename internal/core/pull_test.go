package core

// The repair paths behind relayed gossip (pull.go): the late member its
// vgroup catches up, and the bound and hostile-input test of every map they
// add.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// relay hands every message the nodes of from sent — their egress flushed,
// the round ticked — to the recipients among to, in send order, and returns
// how many it handed over.
func relay(from []*Node, to map[ids.NodeID]*Node) int {
	handed := 0
	for _, n := range from {
		for _, s := range drainGroupSends(n) {
			if r := to[s.to]; r != nil {
				r.Receive(n.cfg.Identity.ID, s.msg)
				handed++
			}
		}
	}
	return handed
}

// at moves the captured clocks of the nodes to now.
func at(now time.Duration, nodes ...*Node) {
	for _, n := range nodes {
		n.env.(*fakeEnv).now = now
	}
}

// gossipOf returns a broadcast's gossip payload and its digest.
func gossipOf(data string) ([]byte, crypto.Digest) {
	p := encodePayload(gossipPayload{BcastID: crypto.Hash([]byte(data)), Origin: 1, Data: []byte(data)})
	return p, crypto.Hash(p)
}

// TestLateMemberCaughtUpByVgroup is the "late member" corner. Member 3 joined
// K after its other members 1 and 2. W′ still addresses K's previous epoch, in
// which 3 was not: 1 and 2 accept the broadcast from W′ alone. They forward it
// to W, whose members accept it from K — a majority of K, the payload from 1
// or 2 or, where 3 was to send it, pulled from them — and so send K nothing.
// No link reaches 3. Its heartbeat's tags lack the digest, so its peers list
// the digest in their heartbeats to it; catchUpWait after the f+1-th of them
// did, 3 pulls the payload from one of them and delivers it on their word,
// exactly once.
func TestLateMemberCaughtUpByVgroup(t *testing.T) {
	K := testComp(5, 2, 1, 2, 3)
	Wp := testComp(7, 1, 21, 22, 23)
	W := testComp(6, 1, 11, 12, 13)
	nodes := map[ids.NodeID]*Node{}
	var k, w []*Node
	for _, m := range K.Members {
		n, _ := memberNode(t, m.ID, K, W)
		n.learnComp(Wp)
		nodes[m.ID], k = n, append(k, n)
	}
	for _, m := range W.Members {
		n, _ := memberNode(t, m.ID, W, K)
		nodes[m.ID], w = n, append(w, n)
	}
	delivered := map[ids.NodeID]int{}
	for id, n := range nodes {
		n.cfg.Callbacks.Deliver = func(Delivery) { delivered[id]++ }
	}
	payload, digest := gossipOf("for the late member")

	for _, n := range k[:2] {
		n.handleGossip(group.Accepted{Src: Wp.Key(), Kind: kindGossip, MsgID: digest, Payload: payload, Digest: digest})
	}
	if relay(k, nodes) == 0 {
		t.Fatal("1 and 2 forwarded nothing toward W")
	}
	for tick := time.Duration(1); tick <= 2; tick++ { // a member of W starved of the bytes pulls them
		at(time.Second+tick*w[0].cfg.RoundDuration, append(w, k...)...)
		for _, n := range w {
			n.repairTick(n.Now())
		}
		relay(w, nodes)
		relay(k, nodes)
	}
	for _, n := range w {
		if delivered[n.cfg.Identity.ID] != 1 {
			t.Fatalf("member %v of W delivered %d times, want once: from K's majority", n.cfg.Identity.ID, delivered[n.cfg.Identity.ID])
		}
	}
	if handed := relay(w, map[ids.NodeID]*Node{3: nodes[3]}); handed != 0 || delivered[3] != 0 {
		t.Fatalf("W handed the late member %d messages and it delivered %d times: the corner is not set up", handed, delivered[3])
	}

	// 3's heartbeat lacks the digest; those of 1 and 2 list it; 3 waits,
	// then pulls.
	servedBefore := k[0].Stats().PullsServed + k[1].Stats().PullsServed
	now := 3 * k[2].cfg.HeartbeatEvery
	at(now, k...)
	k[2].heartbeatTick(now, false)
	relay(k[2:], nodes)
	for _, n := range k[:2] {
		n.heartbeatTick(now, false)
	}
	relay(k[:2], map[ids.NodeID]*Node{3: k[2]})
	at(now+k[2].catchUpWait()-time.Millisecond, k[2])
	k[2].repairTick(k[2].Now())
	if sent := k[2].env.(*fakeEnv).sent; len(sent) != 0 {
		t.Fatalf("the late member sent %v before catchUpWait had passed", sent)
	}
	at(now+k[2].catchUpWait(), k[2])
	k[2].repairTick(k[2].Now())
	relay(k[2:], nodes) // the pull
	relay(k[:2], nodes) // the push
	if delivered[3] != 1 {
		t.Fatalf("the late member delivered %d times, want once", delivered[3])
	}
	if st := k[2].Stats(); st.PullsSent != 1 || st.CaughtUp != 1 {
		t.Errorf("late member: %d pulls, %d catch-ups, want 1 and 1", st.PullsSent, st.CaughtUp)
	}
	if served := k[0].Stats().PullsServed + k[1].Stats().PullsServed - servedBefore; served != 1 {
		t.Errorf("its peers served it %d payloads, want 1", served)
	}
	// A second push of the same bytes changes nothing.
	k[2].Receive(1, PayloadPush{Payloads: [][]byte{payload}})
	if delivered[3] != 1 || k[2].Stats().CaughtUp != 1 {
		t.Errorf("a repeated push: delivered %d times, %d catch-ups", delivered[3], k[2].Stats().CaughtUp)
	}
}

// TestStarvedEntryPullsFromItsVoters: member 4 of B holds a majority of X's
// votes for a broadcast and no copy with its bytes. One round later it asks one
// voter; two rounds after that, with no answer, the next; the answer completes
// the entry, and the node delivers once.
func TestStarvedEntryPullsFromItsVoters(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6)
	X := testComp(2, 1, 11, 12, 13)
	n, env := memberNode(t, 4, B, X)
	delivered := 0
	n.cfg.Callbacks.Deliver = func(Delivery) { delivered++ }
	payload, digest := gossipOf("starved")
	for _, from := range []ids.NodeID{11, 12} {
		n.Receive(from, group.GroupMsg{SrcGroup: X.GroupID, SrcEpoch: X.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
			Kind: kindGossip, MsgID: digest, PayloadDigest: digest})
	}
	round := n.cfg.RoundDuration
	var asked []ids.NodeID
	for tick := 1; tick <= 4; tick++ {
		at(time.Second+time.Duration(tick)*round, n)
		n.repairTick(n.Now())
		for _, s := range env.sent {
			if pull, ok := s.msg.(PayloadPull); ok && slices.Equal(pull.Digests, []crypto.Digest{digest}) {
				asked = append(asked, s.to)
			}
		}
		env.sent = nil
	}
	if len(asked) != 2 || asked[0] == asked[1] || !X.Contains(asked[0]) || !X.Contains(asked[1]) {
		t.Fatalf("four rounds asked %v, want two different voters, one at a time", asked)
	}
	n.Receive(asked[1], PayloadPush{Payloads: [][]byte{payload}})
	if delivered != 1 || n.Stats().PullsSent != 2 {
		t.Fatalf("delivered %d times after %d pulls, want once after 2", delivered, n.Stats().PullsSent)
	}
	if n.inbox.Len() != 0 || !n.delivered.has(digest) || len(n.rep.pulls) != 0 {
		t.Errorf("inbox remembers %d messages, digest delivered %v, %d pulls open: want no entry, the digest in the index, and no pull",
			n.inbox.Len(), n.delivered.has(digest), len(n.rep.pulls))
	}
	n.repairTick(n.Now())
	if len(env.sent) != 0 {
		t.Errorf("the node still pulls after delivering: %v", env.sent)
	}
}

// TestUnwantedPushStoresNothing: a push is used only for a digest the node is
// missing — a starved entry's, or one f+1 members of its composition listed —
// and only once it hashes to it. A push of bytes nobody starves for, of forged
// bytes for a starved digest, or of a digest only f members listed, delivers,
// stores and indexes nothing.
func TestUnwantedPushStoresNothing(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6)
	X := testComp(2, 1, 11, 12, 13)
	n, _ := memberNode(t, 4, B, X)
	delivered := 0
	n.cfg.Callbacks.Deliver = func(Delivery) { delivered++ }
	starved, starvedDigest := gossipOf("starved")
	listed, listedDigest := gossipOf("listed by one")
	stray, _ := gossipOf("nobody asked")
	for _, from := range []ids.NodeID{11, 12} {
		n.Receive(from, group.GroupMsg{SrcGroup: X.GroupID, SrcEpoch: X.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
			Kind: kindGossip, MsgID: starvedDigest, PayloadDigest: starvedDigest})
	}
	at(3*n.cfg.HeartbeatEvery, n)
	n.Receive(5, Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Lacks: []crypto.Digest{listedDigest}}) // f = 1 listing
	before := n.inbox.Len()

	forged := append([]byte(nil), starved...)
	forged[len(forged)-1] ^= 1
	n.Receive(99, PayloadPush{Payloads: [][]byte{stray, forged, listed}})
	if delivered != 0 || n.delivered.digests.len() != 0 || n.delivered.payloads != nil || n.inbox.Len() != before {
		t.Fatalf("unwanted push: %d deliveries, %d digests and %d payloads indexed, inbox %d → %d; want nothing",
			delivered, n.delivered.digests.len(), len(n.delivered.payloads), before, n.inbox.Len())
	}
	var still []crypto.Digest
	n.inbox.Starved(func(d crypto.Digest, _ []ids.NodeID) { still = append(still, d) })
	if !slices.Equal(still, []crypto.Digest{starvedDigest}) {
		t.Fatalf("starved digests after the forged push: %x, want the one starved entry", still)
	}
	n.Receive(99, PayloadPush{Payloads: [][]byte{starved}})
	if delivered != 1 {
		t.Fatalf("the starved entry's own bytes delivered %d times, want once", delivered)
	}
}

// pastCacheHorizon delivers a broadcast at n from X and moves n past its
// payload's cache horizon, ticking once. It returns the payload and digest.
func pastCacheHorizon(t *testing.T, n *Node, X group.Composition, data string) ([]byte, crypto.Digest) {
	t.Helper()
	payload, digest := gossipOf(data)
	start := 3 * n.cfg.HeartbeatEvery
	at(start, n)
	if !n.handleGossip(group.Accepted{Src: X.Key(), Kind: kindGossip, MsgID: digest, Digest: digest, Payload: payload}) {
		t.Fatal("the broadcast was not delivered")
	}
	at(start+n.cacheHorizon()+time.Millisecond, n)
	n.handleTick()
	if n.delivered.payload(digest) != nil || !n.delivered.has(digest) {
		t.Fatal("past the cache horizon the index should hold the digest and not the payload")
	}
	return payload, digest
}

// TestListedAfterCacheHorizonPullsNothing: a broadcast stays delivered for as
// long as the delivered index holds its digest, not only while it holds the
// payload. Past the cache horizon members 5 and 6 — f+1 of B — list the digest:
// the node opens no catch-up entry and, catchUpWait later, pulls nothing.
func TestListedAfterCacheHorizonPullsNothing(t *testing.T) {
	B, X := testComp(3, 1, 4, 5, 6), testComp(2, 1, 11, 12, 13)
	n, env := memberNode(t, 4, B, X)
	_, digest := pastCacheHorizon(t, n, X, "delivered a while ago")
	for _, from := range []ids.NodeID{5, 6} {
		n.Receive(from, Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Lacks: []crypto.Digest{digest}})
	}
	at(n.Now()+n.catchUpWait(), n)
	env.sent = nil
	n.repairTick(n.Now())
	for _, s := range env.sent {
		if pull, ok := s.msg.(PayloadPull); ok {
			t.Errorf("pulled %x from %v: bytes this node delivered", pull.Digests, s.to)
		}
	}
	if len(n.rep.listed) != 0 || n.Stats().PullsSent != 0 {
		t.Errorf("%d catch-up entries, %d pulls sent: want none", len(n.rep.listed), n.Stats().PullsSent)
	}
}

// TestLateCopyAfterCacheHorizonCostsOneProbe: copies of a delivered broadcast
// that arrive past the cache horizon — every member of the neighbor Y, each
// with the bytes — die at one probe of the delivered index: no inbox entry is
// opened, so nothing is hashed or accepted, and the broadcast stays delivered
// once.
func TestLateCopyAfterCacheHorizonCostsOneProbe(t *testing.T) {
	B, X, Y := testComp(3, 1, 4, 5, 6), testComp(2, 1, 11, 12, 13), testComp(5, 1, 21, 22, 23)
	n, _ := memberNode(t, 4, B, Y)
	n.learnComp(X)
	delivered := 0
	n.cfg.Callbacks.Deliver = func(Delivery) { delivered++ }
	payload, digest := pastCacheHorizon(t, n, X, "late copies")
	for _, m := range Y.Members {
		n.Receive(m.ID, group.GroupMsg{SrcGroup: Y.GroupID, SrcEpoch: Y.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
			Kind: kindGossip, MsgID: digest, PayloadDigest: digest, Payload: payload})
		if got := n.inbox.Len(); got != 0 {
			t.Fatalf("the copy of %v left %d inbox entries, want none", m.ID, got)
		}
	}
	if delivered != 1 {
		t.Errorf("delivered %d times, want once", delivered)
	}
}

// TestNonMemberHeartbeatListsNothing: the catch-up table counts members of the
// node's current composition only, and a node that became a member less than
// a heartbeat period ago takes no list, which may predate it. Neither a
// non-member, nor a member of another epoch's composition, nor any peer of a
// fresh member opens an entry.
func TestNonMemberHeartbeatListsNothing(t *testing.T) {
	B := testComp(3, 2, 4, 5, 6)
	n, _ := memberNode(t, 4, B, testComp(2, 1, 11, 12, 13))
	_, d := gossipOf("listed")
	hb := Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Lacks: []crypto.Digest{d}}
	n.rep.since = 10 * time.Second
	at(n.rep.since+n.cfg.HeartbeatEvery/2, n)
	n.Receive(5, hb)
	if len(n.rep.listed) != 0 {
		t.Fatal("a list received half a heartbeat period after joining opened an entry")
	}
	at(n.rep.since+n.cfg.HeartbeatEvery, n)
	for _, from := range []ids.NodeID{99, 11} {
		n.Receive(from, hb)
		n.Receive(from, Heartbeat{GroupID: 2, Epoch: 1, Lacks: hb.Lacks})
	}
	if len(n.rep.listed) != 0 {
		t.Fatalf("non-members opened %d catch-up entries", len(n.rep.listed))
	}
	n.Receive(5, hb)
	if l := n.rep.listed[d]; l == nil || !slices.Equal(l.by, []ids.NodeID{5}) {
		t.Fatalf("a member's list did not open an entry: %+v", l)
	}
}

// TestCatchUpTableBounded: nine members each list 2 × maxListedPerMember
// digests the node has not delivered, twice over. A member's lists open at most
// maxListedPerMember entries and the table holds at most maxListed, so the
// eight that fit are no one member's; entries expire with the cache horizon.
func TestCatchUpTableBounded(t *testing.T) {
	members := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	B := testComp(3, 1, members...)
	n, _ := memberNode(t, 1, B, testComp(2, 1, 11, 12, 13))
	start := 3 * n.cfg.HeartbeatEvery
	at(start, n)
	const perBeat = 2 * maxListedPerMember
	for round := 0; round < 2; round++ {
		for _, m := range members[1:] {
			var ds []crypto.Digest
			for i := 0; i < perBeat; i++ {
				ds = append(ds, crypto.HashUint64(crypto.Hash([]byte(fmt.Sprint(m))), uint64(round*perBeat+i)))
			}
			n.Receive(ids.NodeID(m), Heartbeat{GroupID: B.GroupID, Epoch: B.Epoch, Lacks: ds})
		}
	}
	if len(n.rep.listed) != maxListed {
		t.Fatalf("catch-up table holds %d entries, want the bound %d", len(n.rep.listed), maxListed)
	}
	for id, opened := range n.rep.opened {
		if opened > maxListedPerMember {
			t.Errorf("member %v opened %d entries, bound %d", id, opened, maxListedPerMember)
		}
	}
	at(start+n.cacheHorizon()+time.Millisecond, n)
	n.repairTick(n.Now())
	if len(n.rep.listed) != 0 || len(n.rep.opened) != 0 {
		t.Errorf("%d entries (%d openers) outlived the cache horizon", len(n.rep.listed), len(n.rep.opened))
	}
}

// TestPullFloodGetsBoundedAnswers: node 99 sends a member a hundred pulls of
// the same round, each naming every delivered digest and one twice. It gets one
// answer per round, of distinct payloads — at most maxPullDigests, the most a
// pull can name (TestRepairListsBounded).
func TestPullFloodGetsBoundedAnswers(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6)
	n, env := memberNode(t, 4, B, testComp(2, 1, 11, 12, 13))
	var ds []crypto.Digest
	for i := 0; i < maxPullDigests-1; i++ {
		p, d := gossipOf(fmt.Sprint("cached-", i))
		n.delivered.add(d, p, n.Now())
		ds = append(ds, d)
	}
	ds = append(ds, ds[0])
	for i := 0; i < 100; i++ {
		n.Receive(99, PayloadPull{Digests: ds})
	}
	answers := func() (pushes, payloads int) {
		for _, s := range env.sent {
			if p, ok := s.msg.(PayloadPush); ok && s.to == 99 {
				pushes++
				payloads += len(p.Payloads)
			}
		}
		env.sent = nil
		return
	}
	if pushes, payloads := answers(); pushes != 1 || payloads != maxPullDigests-1 {
		t.Fatalf("a round of pulls got %d answers with %d payloads, want 1 with %d", pushes, payloads, maxPullDigests-1)
	}
	at(n.Now()+n.cfg.RoundDuration, n)
	n.Receive(99, PayloadPull{Digests: ds})
	if pushes, _ := answers(); pushes != 1 {
		t.Errorf("the next round's pull got %d answers, want 1", pushes)
	}
}

// TestDeliveredIndexBounded: the delivered index holds the last maxSeen
// digests, oldest out first; their payloads for the cache horizon and within
// maxCacheBytes, oldest out first — the newest stays even alone over the bound —
// and a quiet node frees its payload slice. A heartbeat tags the digests
// delivered in its window, the newest maxHaveTags of them.
func TestDeliveredIndexBounded(t *testing.T) {
	n, _ := memberNode(t, 4, testComp(3, 1, 4, 5, 6), testComp(2, 1, 11, 12, 13))
	x := &n.delivered
	digest := func(i int) crypto.Digest { return crypto.HashUint64(crypto.Digest{}, uint64(i)) }
	for i := 0; i < maxSeen+2; i++ {
		if !x.add(digest(i), []byte{1}, n.Now()) {
			t.Fatalf("digest %d refused", i)
		}
	}
	if x.add(digest(maxSeen+1), []byte{1}, n.Now()) {
		t.Fatal("a delivered digest was let in twice")
	}
	var order []crypto.Digest
	for d := range x.digests.all() {
		order = append(order, d)
	}
	if x.digests.len() != maxSeen || len(order) != maxSeen || order[0] != digest(2) || order[maxSeen-1] != digest(maxSeen+1) ||
		x.has(digest(1)) || !x.has(digest(2)) {
		t.Fatalf("index holds %d digests (%d in order), the second oldest %v: want the last %d",
			x.digests.len(), len(order), x.has(digest(1)), maxSeen)
	}
	tags := haveTags(7, x.window(0, n.Now()))
	if len(tags) != maxHaveTags || !slices.Contains(tags, haveTag(7, digest(maxSeen+1))) || slices.Contains(tags, haveTag(7, digest(2))) {
		t.Fatalf("heartbeat tags %d digests, want the newest %d the index holds", len(tags), maxHaveTags)
	}
	if ds := x.window(n.Now(), n.Now()); len(ds) != 0 {
		t.Fatalf("a window with nothing delivered in it holds %d deliveries, want none", len(ds))
	}

	*x = deliveredIndex{}
	big := make([]byte, maxCacheBytes/2)
	for i := 0; i < 3; i++ {
		x.add(digest(i), big, n.Now())
	}
	if len(x.payloads) != 2 || x.bytes != maxCacheBytes || x.payload(digest(0)) != nil || x.payload(digest(2)) == nil || !x.has(digest(0)) {
		t.Fatalf("index holds %d payloads, %d bytes: want the two newest, at the bound, and every digest", len(x.payloads), x.bytes)
	}
	at(n.Now()+time.Second, n)
	huge := make([]byte, 2*maxCacheBytes)
	x.add(digest(9), huge, n.Now())
	if len(x.payloads) != 1 || x.bytes != len(huge) || x.payload(digest(9)) == nil {
		t.Fatalf("index holds %d payloads, %d bytes: want the one over the bound alone", len(x.payloads), x.bytes)
	}
	if got := x.window(n.Now()-time.Second, n.Now()); len(got) != 1 || got[0].digest != digest(9) {
		t.Fatalf("the window of the last second holds %d deliveries, want the one delivered in it", len(got))
	}
	at(n.Now()+n.cacheHorizon()+time.Millisecond, n)
	n.handleTick()
	if x.payloads != nil || x.bytes != 0 || x.payload(digest(9)) != nil || x.digests.len() != 4 {
		t.Errorf("after the horizon: %d payloads, %d bytes, %d digests; want no payload slice and every digest", len(x.payloads), x.bytes, x.digests.len())
	}
}

// TestPullsFollowStarved: three sources flood member 4 of B with majority
// votes for broadcasts it has no bytes of, a few more each round, some voted by
// two sources at once. After every repairTick the node has exactly one pull
// open per digest the inbox reports starved at that tick; once SettleAll has
// released the entries, the next tick leaves none.
func TestPullsFollowStarved(t *testing.T) {
	B := testComp(3, 1, 4, 5, 6)
	sources := []group.Composition{testComp(2, 1, 11, 12, 13), testComp(7, 1, 21, 22, 23), testComp(8, 2, 31, 32, 33)}
	n, _ := memberNode(t, 4, B, sources[0])
	for _, s := range sources[1:] {
		n.learnComp(s)
	}
	vote := func(src group.Composition, digest crypto.Digest) {
		for _, m := range src.Members[:src.Majority()] {
			n.Receive(m.ID, group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, DstGroup: B.GroupID, DstEpoch: B.Epoch,
				Kind: kindGossip, MsgID: digest, PayloadDigest: digest})
		}
	}
	starved := func() []crypto.Digest {
		var ds []crypto.Digest
		n.inbox.Starved(func(d crypto.Digest, _ []ids.NodeID) { ds = append(ds, d) })
		return ds
	}
	var all []crypto.Digest
	round := n.cfg.RoundDuration
	for tick := 1; tick <= 6; tick++ {
		for i, src := range sources {
			for k := 0; k < 4; k++ {
				_, d := gossipOf(fmt.Sprintf("flood-%d-%d-%d", tick, i, k))
				vote(src, d)
				if k == 0 { // the next source votes it too: one entry per source, one digest
					vote(sources[(i+1)%len(sources)], d)
				}
				all = append(all, d)
			}
		}
		at(time.Second+time.Duration(tick)*round, n)
		n.repairTick(n.Now())
		if got, want := len(n.rep.pulls), len(starved()); got != want || want != len(all) {
			t.Fatalf("tick %d: %d pulls open, the inbox starved of %d digests, %d voted; want all three equal", tick, got, want, len(all))
		}
	}
	for _, d := range all {
		n.inbox.SettleAll(d)
	}
	if ds := starved(); len(ds) != 0 {
		t.Fatalf("%d digests still starved after SettleAll", len(ds))
	}
	at(n.Now()+round, n)
	n.repairTick(n.Now())
	if len(n.rep.pulls) != 0 {
		t.Errorf("%d pulls open after every starved entry was released, want none", len(n.rep.pulls))
	}
}
