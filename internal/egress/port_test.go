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
}

func (e *portEnv) Self() ids.NodeID   { return 101 }
func (e *portEnv) Now() time.Duration { return e.now }
func (e *portEnv) Send(_ ids.NodeID, msg actor.Message) {
	e.sent = append(e.sent, msg.(group.GroupMsg))
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
