package egress

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// portEnv is an actor.Env that records what a port sends.
type portEnv struct {
	now  time.Duration
	rng  *rand.Rand
	sent []group.GroupMsg
	to   []ids.NodeID // the recipient of each of sent
}

func (e *portEnv) Self() ids.NodeID   { return 101 }
func (e *portEnv) Now() time.Duration { return e.now }
func (e *portEnv) Send(to ids.NodeID, msg actor.Message) {
	e.sent, e.to = append(e.sent, msg.(group.GroupMsg)), append(e.to, to)
}
func (e *portEnv) SetTimer(time.Duration, any) actor.TimerID { return 0 }
func (e *portEnv) CancelTimer(actor.TimerID)                 {}
func (e *portEnv) Rand() *rand.Rand                          { return e.rng }
func (e *portEnv) Logf(string, ...any)                       {}

// TestCarrierMsgIDIsZero: a carrier, toward a vgroup or a node, names no
// MsgID and no PayloadDigest — the receiver votes the inner items under their
// own — while a single item leaves as a plain message under its own MsgID.
func TestCarrierMsgIDIsZero(t *testing.T) {
	env := &portEnv{rng: rand.New(rand.NewSource(1))}
	never := func() bool { return false }
	p := NewPort(Config{MaxBatch: 2, MaxBytes: 1 << 20, MaxWindow: 5 * time.Millisecond, Limit: 8,
		Now: env.Now, Arm: func(time.Duration) {}},
		Rules{Self: 101, Sync: true, Carrier: 15, CarrierOK: func(group.Kind) bool { return true }, MuteGroup: never, MuteDirect: never})
	p.Start(env)
	src, dst := comp(1, 1), comp(2, 1)
	env.now += time.Second
	p.Group(src, dst, item(1))
	p.Group(src, dst, item(2)) // fills the cap: closed, held for the tick
	for k := byte(0); k < 3; k++ {
		p.EnqueueNodeWith(src, 42, item(10+k), ClassData, 0) // the first leaves at once
	}
	p.FlushAll() // the node carrier leaves now
	p.FlushDeferred()
	sent := env.sent
	if len(sent) != 3 || sent[1].DstGroup != 0 || sent[2].DstGroup != dst.GroupID {
		t.Fatalf("sent %d messages, want a raw item, the node carrier, then the group carrier", len(sent))
	}
	if sent[0].Kind == 15 || sent[0].MsgID != item(10).MsgID {
		t.Errorf("the lone raw item left as kind %d under %x, want itself", sent[0].Kind, sent[0].MsgID[:4])
	}
	for _, m := range sent[1:] {
		if m.Kind != 15 || m.MsgID != (crypto.Digest{}) || m.PayloadDigest != (crypto.Digest{}) {
			t.Errorf("carrier to group %v: kind %d, MsgID %x, PayloadDigest %x, want kind 15 and both zero",
				m.DstGroup, m.Kind, m.MsgID[:4], m.PayloadDigest[:4])
		}
	}
}

// relayRig is a port whose node, member 101 of a four-member source, relays
// to two members of an eight-member destination, with three relayed items to
// send and a holders rule the test sets per member.
type relayRig struct {
	env      *portEnv
	p        *Port
	src, dst group.Composition
	items    []group.BatchItem
	mine     []ids.NodeID // the destination members 101 is the RelaySender of
	held     map[ids.NodeID]map[crypto.Digest]bool
	left     int // items Rules.Left heard of
}

func newRelayRig(t testing.TB, lag time.Duration) *relayRig {
	r := &relayRig{env: &portEnv{now: time.Second, rng: rand.New(rand.NewSource(1))}, held: map[ids.NodeID]map[crypto.Digest]bool{}}
	never := func() bool { return false }
	r.p = NewPort(Config{MaxBatch: 64, MaxBytes: 1 << 20, MaxWindow: 5 * time.Millisecond, Limit: 8,
		Now: r.env.Now, Arm: func(time.Duration) {}},
		Rules{Self: 101, Sync: true, Carrier: 15, CarrierOK: func(group.Kind) bool { return true }, MuteGroup: never, MuteDirect: never,
			Holds:    func(_ group.Key, m ids.NodeID, d crypto.Digest) bool { return r.held[m][d] },
			RelayLag: lag,
			Left:     func(group.BatchItem) { r.left++ }})
	r.p.Start(r.env)
	r.src = group.Composition{GroupID: 1, Epoch: 1, Members: []ids.Identity{{ID: 101}, {ID: 102}, {ID: 103}, {ID: 104}}}
	r.dst = group.Composition{GroupID: 2, Epoch: 1}
	for m := ids.NodeID(201); m <= 208; m++ {
		r.dst.Members = append(r.dst.Members, ids.Identity{ID: m})
	}
	for j, m := range r.dst.Members {
		if group.RelaySender(r.src, r.dst, j) == 0 {
			r.mine = append(r.mine, m.ID)
		}
	}
	if len(r.mine) != 2 {
		t.Fatalf("member 101 relays to %d members, the rig wants 2", len(r.mine))
	}
	for k := byte(0); k < 3; k++ {
		it := item(k)
		it.Relay, it.Digest, it.MsgID, it.DerivedID = true, crypto.Hash(it.Payload), crypto.Hash(it.Payload), true
		r.items = append(r.items, it)
	}
	return r
}

// round queues the rig's items and runs the tick.
func (r *relayRig) round() {
	for _, it := range r.items {
		r.p.Group(r.src, r.dst, it)
	}
	r.p.FlushDeferred()
}

// hold makes member a holder of the items numbered.
func (r *relayRig) hold(member ids.NodeID, items ...int) {
	r.held[member] = map[crypto.Digest]bool{}
	for _, i := range items {
		r.held[member][r.items[i].Digest] = true
	}
}

// payloads takes what the port sent since the last call and counts the
// relayed payloads each recipient got.
func (r *relayRig) payloads(t *testing.T) map[ids.NodeID]int {
	t.Helper()
	out := map[ids.NodeID]int{}
	for i, m := range r.env.sent {
		inner, err := group.UnpackBatch(m)
		if err != nil {
			t.Fatal(err)
		}
		out[r.env.to[i]] += 0
		for _, im := range inner {
			if im.Payload != nil {
				out[r.env.to[i]]++
			}
		}
	}
	r.env.sent, r.env.to = nil, nil
	return out
}

// TestParkedCopyLeavesAfterLag: at the tick the port sends the lean frame, no
// relayed payload, to every destination member but those it relays to, and
// to one of those the holders rule already names a holder of every relayed
// item; it parks the rest, as one batch. The rig's source has the lower
// GroupID, so in its synchronous round it speaks first and the batch waits two
// lags. Then each parked copy leaves framed item by item: a payload its member
// has come to hold meanwhile goes as its digest. Left hears of each item once
// its last copy has left, and FlushAll sends what is parked without waiting
// for the lags.
func TestParkedCopyLeavesAfterLag(t *testing.T) {
	const lag = 3 * time.Millisecond
	r := newRelayRig(t, lag)
	r.hold(r.mine[0], 1) // a holder of one item: parked all the same
	r.round()
	sent := r.payloads(t)
	if len(sent) != r.dst.N()-2 || r.p.Parked() != 1 || r.left != 0 {
		t.Fatalf("at the tick: %d copies sent, %d batches parked, %d items left; want %d, 1, 0", len(sent), r.p.Parked(), r.left, r.dst.N()-2)
	}
	for to, n := range sent {
		if n != 0 {
			t.Errorf("the copy sent at the tick to %v carries %d relayed payloads, want none", to, n)
		}
	}
	r.hold(r.mine[1], 2) // voted meanwhile
	r.env.now += 2*lag - 1
	r.p.OnTimer()
	if sent := r.payloads(t); len(sent) != 0 {
		t.Fatalf("before two lags were up the port sent %v", sent)
	}
	r.env.now++
	r.p.OnTimer()
	sent = r.payloads(t)
	if len(sent) != 2 || sent[r.mine[0]] != 2 || sent[r.mine[1]] != 2 || r.p.Parked() != 0 {
		t.Fatalf("two lags on: relayed payloads sent %v, %d parked; want 2 to each of %v, none parked", sent, r.p.Parked(), r.mine)
	}
	if r.left != len(r.items) || r.p.Withheld() != 2 {
		t.Errorf("Left heard of %d items and %d payloads were withheld, want %d and 2", r.left, r.p.Withheld(), len(r.items))
	}

	r.hold(r.mine[0], 0, 1, 2) // a holder of every relayed item: no park
	r.hold(r.mine[1])
	r.round()
	if got := r.p.Parked(); got != 1 {
		t.Fatalf("the second tick parked %d batches, want 1", got)
	}
	r.p.FlushAll()
	sent = r.payloads(t)
	if len(sent) != r.dst.N() || sent[r.mine[0]] != 0 || sent[r.mine[1]] != len(r.items) || r.p.Parked() != 0 {
		t.Errorf("FlushAll: relayed payloads sent %v, %d parked; want a copy to all %d, none to %v, %d to %v, none parked",
			sent, r.p.Parked(), r.dst.N(), r.mine[0], len(r.items), r.mine[1])
	}
}

// turnRig is a port for member 101, index 0 of vgroup 5, in a synchronous
// round whose neighbors are vgroup 3 (lower: 101 speaks second toward it) and
// vgroup 7 (higher: 101 speaks first), with rules the test sets: holders per
// member, digests withdrawn, and what Left and Arm heard.
type turnRig struct {
	env       *portEnv
	p         *Port
	src       group.Composition
	low, high group.Composition
	held      map[ids.NodeID]map[crypto.Digest]bool
	withdrawn map[crypto.Digest]bool
	left      []crypto.Digest
	armed     []time.Duration // the deadlines the port asked its timer for
}

func newTurnRig(lag time.Duration) *turnRig {
	r := &turnRig{env: &portEnv{now: time.Second, rng: rand.New(rand.NewSource(2))},
		held: map[ids.NodeID]map[crypto.Digest]bool{}, withdrawn: map[crypto.Digest]bool{}}
	never := func() bool { return false }
	r.p = NewPort(Config{MaxBatch: 64, MaxBytes: 1 << 20, MaxWindow: 5 * time.Millisecond, Limit: 8,
		Now: r.env.Now, Arm: func(d time.Duration) { r.armed = append(r.armed, r.env.now+d) }},
		Rules{Self: 101, Sync: true, Carrier: 15, CarrierOK: func(group.Kind) bool { return true }, MuteGroup: never, MuteDirect: never,
			Holds:    func(_ group.Key, m ids.NodeID, d crypto.Digest) bool { return r.held[m][d] },
			Withdraw: func(_ group.Composition, it group.BatchItem) bool { return r.withdrawn[it.Digest] },
			RelayLag: lag,
			Left:     func(it group.BatchItem) { r.left = append(r.left, it.Digest) }})
	r.p.Start(r.env)
	r.src = compOf(5, 1, 101, 102, 103, 104)
	r.low = compOf(3, 1, 201, 202, 203, 204, 205, 206, 207, 208)
	r.high = compOf(7, 1, 301, 302, 303, 304, 305, 306, 307, 308)
	return r
}

// relayedItems are ordinary items of kind 1 named by their digests, the first
// n of them relayed payloads.
func relayedItems(n int, payloads ...string) []group.BatchItem {
	items := batchItems(payloads...)
	for i := range items {
		items[i].Digest = crypto.Hash(items[i].Payload)
		items[i].Relay = i < n
	}
	return items
}

// tick queues items toward dst and runs the round tick.
func (r *turnRig) tick(dst group.Composition, items ...group.BatchItem) {
	for _, it := range items {
		r.p.Group(r.src, dst, it)
	}
	r.p.FlushDeferred()
}

// sent takes what the port sent since the last call: per recipient, per item
// digest, whether the item carried its payload.
func (r *turnRig) sent(t *testing.T) map[ids.NodeID]map[crypto.Digest]bool {
	t.Helper()
	out := map[ids.NodeID]map[crypto.Digest]bool{}
	for i, m := range r.env.sent {
		got := []group.GroupMsg{m}
		if m.Kind == 15 {
			var err error
			if got, err = group.UnpackBatch(m); err != nil {
				t.Fatal(err)
			}
		}
		if out[r.env.to[i]] != nil {
			t.Fatalf("%v got two copies", r.env.to[i])
		}
		out[r.env.to[i]] = map[crypto.Digest]bool{}
		for _, im := range got {
			out[r.env.to[i]][im.PayloadDigest] = im.Payload != nil
		}
	}
	r.env.sent, r.env.to = nil, nil
	return out
}

// served returns the members of dst that 101 is the RelaySender of.
func (r *turnRig) served(dst group.Composition) []ids.NodeID {
	var out []ids.NodeID
	for j, m := range dst.Members {
		if group.RelaySender(r.src, dst, j) == 0 {
			out = append(out, m.ID)
		}
	}
	return out
}

// TestSecondSpeakerTakesItsTurn: toward its lower neighbor, a member speaks
// second. A batch with no relayed payload (the origin hop) leaves at the tick
// all the same; a relayed one waits whole for one lag. Then the members it
// serves get their copy first, every item in it, built under Holds: a payload
// the member holds goes as its digest, one it does not in full. The link rule
// is asked again, and the rest of the vgroup gets the lean copy of the items it
// leaves. Left hears of those, not of the item withdrawn.
func TestSecondSpeakerTakesItsTurn(t *testing.T) {
	const lag = 3 * time.Millisecond
	r := newTurnRig(lag)
	origin := batchItems("origin-vote", "origin-ordinary")
	origin[0].Digest, origin[0].Payload = crypto.Hash(origin[0].Payload), nil
	r.tick(r.low, origin...)
	if got := r.sent(t); len(got) != r.low.N() || r.p.Parked() != 0 {
		t.Fatalf("a batch with no relayed payload: %d copies at the tick, %d batches parked; want %d, none", len(got), r.p.Parked(), r.low.N())
	}
	r.left = nil

	items := relayedItems(2, "redundant", "relayed", "ordinary")
	redundant, relayed, ordinary := items[0].Digest, items[1].Digest, items[2].Digest
	r.tick(r.low, items...)
	if got := r.sent(t); len(got) != 0 || r.p.Parked() != 1 {
		t.Fatalf("a relayed batch at the tick: %d copies sent, %d batches parked; want none sent, 1 parked", len(got), r.p.Parked())
	}
	// Meanwhile the first speaker's votes arrive: f+1 of them make the first
	// item redundant on the link, and every member holds it.
	mine := r.served(r.low)
	if len(mine) != 2 {
		t.Fatalf("101 relays to %d members of the lower neighbor, the test wants 2", len(mine))
	}
	r.withdrawn[redundant] = true
	for _, m := range r.low.Members {
		r.held[m.ID] = map[crypto.Digest]bool{redundant: true}
	}
	r.held[mine[0]][relayed] = true
	r.env.now += lag - 1
	r.p.OnTimer()
	if got := r.sent(t); len(got) != 0 {
		t.Fatalf("before the lag was up the port sent %d copies", len(got))
	}
	r.env.now++
	r.p.OnTimer()
	got := r.sent(t)
	if len(got) != r.low.N() || r.p.Parked() != 0 {
		t.Fatalf("one lag on: %d copies sent, %d batches parked; want %d, none", len(got), r.p.Parked(), r.low.N())
	}
	want := map[crypto.Digest]bool{relayed: false, ordinary: true}
	for _, m := range r.low.Members {
		w := want
		switch m.ID {
		case mine[0]:
			w = map[crypto.Digest]bool{redundant: false, relayed: false, ordinary: true}
		case mine[1]:
			w = map[crypto.Digest]bool{redundant: false, relayed: true, ordinary: true}
		}
		if !maps.Equal(got[m.ID], w) {
			t.Errorf("member %v got items (digest: payload) %v, want %v", m.ID, got[m.ID], w)
		}
	}
	if !slices.Equal(r.left, []crypto.Digest{relayed, ordinary}) || r.p.Withheld() != 3 {
		t.Errorf("Left heard of %d items, %d payloads withheld; want the two left in the lean copy, 3", len(r.left), r.p.Withheld())
	}
}

// TestParkedCopiesLeaveInDueOrder: a first speaker's served copies park for
// two lags, a second speaker's batch for one. A one-lag batch queued after a
// two-lag one that falls due first leaves first: at its own due time, for
// which the port arms its timer, while the other waits out its two lags.
// Parked counts the waiting batches.
func TestParkedCopiesLeaveInDueOrder(t *testing.T) {
	const lag = 3 * time.Millisecond
	r := newTurnRig(lag)
	t0 := r.env.now
	r.tick(r.high, relayedItems(1, "toward the higher")...)
	if got := r.sent(t); len(got) != r.high.N()-len(r.served(r.high)) || r.p.Parked() != 1 {
		t.Fatalf("first speaker at the tick: %d copies sent, %d batches parked; want all but the served, 1", len(got), r.p.Parked())
	}
	r.env.now = t0 + time.Millisecond
	r.tick(r.low, relayedItems(1, "toward the lower")...)
	if got := r.sent(t); len(got) != 0 || r.p.Parked() != 2 {
		t.Fatalf("second speaker at its tick: %d copies sent, %d batches parked; want none, 2", len(got), r.p.Parked())
	}
	if !slices.Contains(r.armed, t0+time.Millisecond+lag) {
		t.Errorf("the port armed its timer for %v, want the one-lag batch's due time %v among them", r.armed, t0+time.Millisecond+lag)
	}
	r.env.now = t0 + time.Millisecond + lag
	r.p.OnTimer()
	got := r.sent(t)
	if len(got) != r.low.N() || r.p.Parked() != 1 {
		t.Fatalf("at the one-lag batch's due time: %d copies sent, %d batches parked; want the %d of the lower neighbor, 1", len(got), r.p.Parked(), r.low.N())
	}
	for to := range got {
		if !r.low.Contains(to) {
			t.Errorf("the first speaker's parked copy to %v left before its two lags", to)
		}
	}
	r.env.now = t0 + 2*lag - 1
	r.p.OnTimer()
	if got := r.sent(t); len(got) != 0 {
		t.Fatalf("before two lags were up the port sent %d copies", len(got))
	}
	r.env.now++
	r.p.OnTimer()
	if got = r.sent(t); len(got) != len(r.served(r.high)) || r.p.Parked() != 0 {
		t.Fatalf("two lags on: %d copies sent, %d batches parked; want the %d served, none", len(got), r.p.Parked(), len(r.served(r.high)))
	}
	for to := range got {
		if !slices.Contains(r.served(r.high), to) {
			t.Errorf("the first speaker's parked copy went to %v, which it does not serve", to)
		}
	}
}

// TestZeroLagSendsRelayedCopyAtOnce: with no RelayLag the copy toward each
// member this member relays to takes the same path — framed item by item — but
// leaves with its batch, and nothing stays parked.
func TestZeroLagSendsRelayedCopyAtOnce(t *testing.T) {
	r := newRelayRig(t, 0)
	r.hold(r.mine[0], 1)
	r.round()
	sent := r.payloads(t)
	if len(sent) != r.dst.N() || sent[r.mine[0]] != 2 || sent[r.mine[1]] != 3 || r.p.Parked() != 0 {
		t.Fatalf("relayed payloads sent %v, %d parked; want a copy to all %d, 2 to %v, 3 to %v, none parked",
			sent, r.p.Parked(), r.dst.N(), r.mine[0], r.mine[1])
	}
	if r.left != len(r.items) || r.p.Withheld() != 1 {
		t.Errorf("Left heard of %d items and %d payloads were withheld, want %d and 1", r.left, r.p.Withheld(), len(r.items))
	}
}

// TestRelayedBatchAllocs pins what a relayed batch whose copy parks and leaves
// costs the port beyond a plain batch, so that framing a parked copy per member
// cannot creep: once the rig is warm, a round — three items queued, the tick,
// the lag — allocates the destination order, the lean frame, the parked items'
// copy, each parked member's frame and each copy's boxing into the
// transport's message (one per destination member): 2 + 1 + 2 + 8 = 13.
func TestRelayedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops encoders: the count is not the port's")
	}
	const lag = 3 * time.Millisecond
	r := newRelayRig(t, lag)
	cycle := func() {
		r.round()
		r.env.now += lag
		r.p.OnTimer()
		r.env.sent, r.env.to = r.env.sent[:0], r.env.to[:0]
	}
	for k := 0; k < 8; k++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg > 13 {
		t.Fatalf("a relayed round with a parked copy allocates %.1f objects, want <= 13", avg)
	}
}

// newFanPort is a port for member self whose group batches wait for the tick
// (FlushDeferred) and whose carriers are of kind 99; holds is its Rules.Holds.
func newFanPort(self ids.NodeID, seed int64, holds group.Holds) (*Port, *portEnv) {
	env := &portEnv{now: time.Second, rng: rand.New(rand.NewSource(seed))}
	never := func() bool { return false }
	p := NewPort(Config{MaxBatch: 64, MaxBytes: 1 << 20, MaxWindow: 5 * time.Millisecond, Limit: 8,
		Now: env.Now, Arm: func(time.Duration) {}},
		Rules{Self: self, Sync: true, Carrier: 99, CarrierOK: func(group.Kind) bool { return true },
			MuteGroup: never, MuteDirect: never, Holds: holds, RelayLag: 3 * time.Millisecond})
	p.Start(env)
	return p, env
}

// tick sends items from src to dst through p as one batch, at the round tick.
func tick(p *Port, src, dst group.Composition, items ...group.BatchItem) {
	for _, it := range items {
		p.Group(src, dst, it)
	}
	p.FlushDeferred()
}

// compOf is a composition of the members named.
func compOf(gid ids.GroupID, epoch uint64, members ...ids.NodeID) group.Composition {
	c := group.Composition{GroupID: gid, Epoch: epoch}
	for _, m := range members {
		c.Members = append(c.Members, ids.Identity{ID: m})
	}
	return c
}

// batchItems are ordinary items of kind 1 carrying the payloads given.
func batchItems(payloads ...string) []group.BatchItem {
	var items []group.BatchItem
	for i, p := range payloads {
		items = append(items, group.BatchItem{Kind: 1, MsgID: crypto.HashUint64(crypto.Hash([]byte("item")), uint64(i)), Payload: []byte(p)})
	}
	return items
}

// inner unpacks a carrier (kind 99), or returns a plain message as itself.
func inner(t *testing.T, m group.GroupMsg) []group.GroupMsg {
	t.Helper()
	if m.Kind != 99 {
		return []group.GroupMsg{m}
	}
	items, err := group.UnpackBatch(m)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// fullItems counts the payloads a copy carries: its own, or its carrier's.
func fullItems(t *testing.T, m group.GroupMsg) int {
	t.Helper()
	full := 0
	for _, im := range inner(t, m) {
		if im.Payload != nil {
			full++
		}
	}
	return full
}

// TestSendDigestOptimization: of the members of the source, the ⌊N/2⌋+1 with
// the lowest indices send a lone item's payload and the rest its digest, to
// every member of the destination (§5.1). An item built without its payload is
// a digest-only vote from the lowest-index member too.
func TestSendDigestOptimization(t *testing.T) {
	src := compOf(1, 1, 1, 2, 3, 4, 5) // majority = 3
	dst := compOf(2, 1, 10, 11, 12)
	payload := []byte("data")
	it := group.BatchItem{Kind: 1, MsgID: crypto.Hash([]byte("m1")), Payload: payload}

	fullSenders := 0
	for _, m := range src.Members {
		p, env := newFanPort(m.ID, 1, nil)
		tick(p, src, dst, it)
		if len(env.sent) != dst.N() {
			t.Fatalf("sent %d copies, want %d", len(env.sent), dst.N())
		}
		if env.sent[0].Payload != nil {
			fullSenders++
		}
		for _, c := range env.sent {
			if c.PayloadDigest != crypto.Hash(payload) {
				t.Error("wrong payload digest")
			}
		}
	}
	if fullSenders != src.Majority() {
		t.Errorf("%d members sent full payloads, want exactly majority %d", fullSenders, src.Majority())
	}

	p, env := newFanPort(src.Members[0].ID, 1, nil)
	tick(p, src, dst, group.BatchItem{Kind: 1, MsgID: it.MsgID, Digest: crypto.Hash(payload)})
	for _, c := range env.sent {
		if c.Payload != nil || c.PayloadDigest != crypto.Hash(payload) {
			t.Errorf("payload-less item sent as payload %q, digest %x", c.Payload, c.PayloadDigest[:4])
		}
	}
}

// TestSendBatchDigestOptimization mirrors TestSendDigestOptimization for a
// carrier: members with the lowest ⌊N/2⌋+1 indices send full payloads, the
// rest digest-only copies.
func TestSendBatchDigestOptimization(t *testing.T) {
	src := compOf(1, 1, 1, 2, 3, 4, 5)
	dst := compOf(2, 1, 10, 11, 12)
	items := batchItems("payload-a", "payload-b")

	countFull := func(self ids.NodeID) (full, digest int) {
		p, env := newFanPort(self, 1, nil)
		tick(p, src, dst, items...)
		if len(env.sent) != dst.N() {
			t.Fatalf("sent %d copies, want %d", len(env.sent), dst.N())
		}
		for _, im := range inner(t, env.sent[0]) {
			if im.Payload != nil {
				full++
			} else {
				digest++
			}
			if im.SrcGroup != src.GroupID || im.DstGroup != dst.GroupID {
				t.Error("inner item did not inherit carrier headers")
			}
		}
		return full, digest
	}

	if full, _ := countFull(1); full != len(items) {
		t.Errorf("low-index member sent %d full payloads, want %d", full, len(items))
	}
	if _, digest := countFull(5); digest != len(items) {
		t.Errorf("high-index member must send digest-only items, got %d", digest)
	}
	// An item built without its payload is a digest-only vote from any member.
	items[0].Digest, items[0].Payload = crypto.Hash(items[0].Payload), nil
	if full, digest := countFull(1); full != 1 || digest != 1 {
		t.Errorf("low-index member sent %d full and %d digest-only items, want the payload-less item digest-only", full, digest)
	}
}

// TestRelayItemsReachEachMemberOnce: a Relay item's payload reaches each
// destination member from the one source member RelaySender names, alone and
// in a carrier alike — parked, and sent when the port flushes — and every
// other sender's copy names its digest. A member Rules.Holds names a holder
// gets the digest from its RelaySender too, which counts the payload withheld.
// Beside it in a carrier, an ordinary item keeps the majority rule. No flush
// sends more than two different copies: the lean one and the served one.
func TestRelayItemsReachEachMemberOnce(t *testing.T) {
	all := []ids.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	for n := 1; n <= 8; n++ {
		for k := 1; k <= 8; k++ {
			src := compOf(1, uint64(n), all[:n]...)
			dst := compOf(2, uint64(k), 11, 12, 13, 14, 15, 16, 17, 18)
			dst.Members = dst.Members[:k]
			relayed := batchItems("relayed")[0]
			relayed.Relay = true
			ordinary := batchItems("ordinary")[0]
			holder := dst.Members[k-1].ID
			for _, holds := range []group.Holds{nil, func(d group.Key, j ids.NodeID, digest crypto.Digest) bool {
				return d == dst.Key() && j == holder && digest == crypto.Hash(relayed.Payload)
			}} {
				carried := map[ids.NodeID][2]int{} // per destination member: relayed payloads alone, in a carrier
				withheld := uint64(0)
				for idx, m := range src.Members {
					p, env := newFanPort(m.ID, 3, holds)
					for path, items := range [][]group.BatchItem{{relayed}, {relayed, ordinary}} {
						env.sent, env.to = nil, nil
						tick(p, src, dst, items...)
						p.FlushAll()
						variants := map[string]bool{}
						for i, c := range env.sent {
							variants[string(c.Payload)] = true
							got := inner(t, c)
							if path == 1 && (got[1].Payload != nil) != (idx < src.Majority()) {
								t.Errorf("n=%d k=%d: member %d broke the majority rule on the ordinary item", n, k, idx)
							}
							cnt := carried[env.to[i]]
							if got[0].Payload != nil {
								cnt[path]++
							}
							carried[env.to[i]] = cnt
						}
						if len(variants) > 2 {
							t.Errorf("n=%d k=%d: member %d sent %d different copies in one flush, want at most 2", n, k, idx, len(variants))
						}
					}
					withheld += p.Withheld()
				}
				wantWithheld := uint64(0)
				for j, member := range dst.Members {
					want := [2]int{1, 1}
					if holds != nil && member.ID == holder {
						want, wantWithheld = [2]int{}, 2
					}
					if c := carried[member.ID]; c != want {
						t.Errorf("n=%d k=%d, holder known %v: member %d (RelaySender %d) got the relayed payload %v times (alone, in a carrier), want %v",
							n, k, holds != nil, j, group.RelaySender(src, dst, j), c, want)
					}
				}
				if withheld != wantWithheld {
					t.Errorf("n=%d k=%d, holder known %v: %d payloads withheld, want %d", n, k, holds != nil, withheld, wantWithheld)
				}
			}
		}
	}
}

// TestParkedCopyFramedItemByItem: at the tick the port parks the copy toward
// each member it relays to, unless Rules.Holds names the member a holder of
// every relayed payload, and sends every other copy. The parked copy is built
// item by item when it leaves, asking Holds again: each relayed payload the
// member has come to hold since goes as its digest, each other one in full,
// and the ordinary item keeps the majority rule.
func TestParkedCopyFramedItemByItem(t *testing.T) {
	src := compOf(1, 1, 1, 2, 3, 4)
	dst := compOf(2, 1, 11, 12, 13, 14, 15, 16, 17, 18)
	items := batchItems("first", "second", "ordinary")
	for i := range items[:2] {
		items[i].Relay = true
		items[i].Digest = crypto.Hash(items[i].Payload)
	}
	var mine []ids.NodeID // the members member 1 relays to
	for j, m := range dst.Members {
		if group.RelaySender(src, dst, j) == 0 {
			mine = append(mine, m.ID)
		}
	}
	if len(mine) != 2 {
		t.Fatalf("member 1 relays to %d members of dst, the test wants 2", len(mine))
	}
	// mine[0] holds both relayed payloads from the start; mine[1] comes to
	// hold the second while its copy is parked.
	var held map[ids.NodeID]map[crypto.Digest]bool
	holds := func(d group.Key, j ids.NodeID, digest crypto.Digest) bool { return d == dst.Key() && held[j][digest] }
	for _, batch := range []bool{false, true} {
		held = map[ids.NodeID]map[crypto.Digest]bool{mine[0]: {items[0].Digest: true, items[1].Digest: true}}
		p, env := newFanPort(src.Members[0].ID, 5, holds)
		n, ordinary := 1, 0 // the items sent, and the ordinary payloads among them
		if batch {
			n, ordinary = len(items), 1
		}
		tick(p, src, dst, items[:n]...)
		if p.Parked() != 1 || len(env.sent) != dst.N()-1 || p.Withheld() != uint64(n-ordinary) {
			t.Fatalf("batch=%v: %d parked, sent %d copies, withheld %d; want 1 parked, %d sent, %d withheld",
				batch, p.Parked(), len(env.sent), p.Withheld(), dst.N()-1, n-ordinary)
		}
		for i, m := range env.sent {
			if env.to[i] == mine[1] {
				t.Fatalf("batch=%v: the copy toward %v left at the tick", batch, mine[1])
			}
			if full := fullItems(t, m); full != ordinary {
				t.Errorf("batch=%v: the copy sent at the tick toward %v carries %d payloads, want %d (the ordinary one)", batch, env.to[i], full, ordinary)
			}
		}
		held[mine[1]] = map[crypto.Digest]bool{items[1].Digest: true}
		env.sent, env.to = nil, nil
		before := p.Withheld()
		p.FlushAll()
		if len(env.sent) != 1 || env.to[0] != mine[1] || p.Withheld()-before != uint64(ordinary) {
			t.Fatalf("batch=%v: the release sent %d copies (to %v), withheld %d; want one to %v, %d withheld",
				batch, len(env.sent), env.to, p.Withheld()-before, mine[1], ordinary)
		}
		m := env.sent[0]
		if !batch {
			if m.Kind != items[0].Kind || m.MsgID != items[0].MsgID || m.Payload == nil {
				t.Errorf("a lone parked item left as kind %d under %x with payload %v, want itself in full", m.Kind, m.MsgID[:4], m.Payload != nil)
			}
			continue
		}
		in := inner(t, m)
		if in[0].Payload == nil || in[1].Payload != nil || in[2].Payload == nil {
			t.Errorf("the parked carrier carries payloads %v %v %v, want the first and the ordinary one",
				in[0].Payload != nil, in[1].Payload != nil, in[2].Payload != nil)
		}
	}
}
