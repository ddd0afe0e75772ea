package egress

import (
	"math/rand"
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
// item; it parks the rest. One lag later each parked copy leaves framed item
// by item: a payload its member has come to hold meanwhile goes as its digest.
// Left hears of each item once its last copy has left, and FlushAll sends what
// is parked without waiting for the lag.
func TestParkedCopyLeavesAfterLag(t *testing.T) {
	const lag = 3 * time.Millisecond
	r := newRelayRig(t, lag)
	r.hold(r.mine[0], 1) // a holder of one item: parked all the same
	r.round()
	sent := r.payloads(t)
	if len(sent) != r.dst.N()-2 || r.p.Parked() != 2 || r.left != 0 {
		t.Fatalf("at the tick: %d copies sent, %d parked, %d items left; want %d, 2, 0", len(sent), r.p.Parked(), r.left, r.dst.N()-2)
	}
	for to, n := range sent {
		if n != 0 {
			t.Errorf("the copy sent at the tick to %v carries %d relayed payloads, want none", to, n)
		}
	}
	r.hold(r.mine[1], 2) // voted meanwhile
	r.env.now += lag - 1
	r.p.OnTimer()
	if sent := r.payloads(t); len(sent) != 0 {
		t.Fatalf("before the lag was up the port sent %v", sent)
	}
	r.env.now++
	r.p.OnTimer()
	sent = r.payloads(t)
	if len(sent) != 2 || sent[r.mine[0]] != 2 || sent[r.mine[1]] != 2 || r.p.Parked() != 0 {
		t.Fatalf("one lag on: relayed payloads sent %v, %d parked; want 2 to each of %v, none parked", sent, r.p.Parked(), r.mine)
	}
	if r.left != len(r.items) || r.p.Withheld() != 2 {
		t.Errorf("Left heard of %d items and %d payloads were withheld, want %d and 2", r.left, r.p.Withheld(), len(r.items))
	}

	r.hold(r.mine[0], 0, 1, 2) // a holder of every relayed item: no park
	r.hold(r.mine[1])
	r.round()
	if got := r.p.Parked(); got != 1 {
		t.Fatalf("the second tick parked %d copies, want 1", got)
	}
	r.p.FlushAll()
	sent = r.payloads(t)
	if len(sent) != r.dst.N() || sent[r.mine[0]] != 0 || sent[r.mine[1]] != len(r.items) || r.p.Parked() != 0 {
		t.Errorf("FlushAll: relayed payloads sent %v, %d parked; want a copy to all %d, none to %v, %d to %v, none parked",
			sent, r.p.Parked(), r.dst.N(), r.mine[0], len(r.items), r.mine[1])
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
