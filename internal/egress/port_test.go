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

// TestCarrierNumbersFollowClosingOrder: in a round, a group carrier closed
// early (here by MaxBatch) takes its number when it closes, not when the tick
// frames it, so a node carrier framed in between takes the next one — the
// numbering the engine had when it framed such batches at once. The second
// round, a second later, runs on recycled batches.
func TestCarrierNumbersFollowClosingOrder(t *testing.T) {
	env := &portEnv{rng: rand.New(rand.NewSource(1))}
	never := func() bool { return false }
	p := NewPort(Config{MaxBatch: 2, MaxBytes: 1 << 20, MaxWindow: 5 * time.Millisecond, Limit: 8,
		Now: env.Now, Arm: func(time.Duration) {}},
		Rules{Self: 101, Sync: true, Carrier: 15, CarrierOK: func(group.Kind) bool { return true }, MuteGroup: never, MuteDirect: never})
	p.Start(env)
	src, dst := comp(1, 1), comp(2, 1)
	idOf := func(dst ids.GroupID, n uint64) crypto.Digest {
		defer func(saved uint64) { p.carrier = saved }(p.carrier)
		p.carrier = n
		return p.carrierID(src, dst)
	}
	for round := uint64(0); round < 2; round++ {
		env.now += time.Second
		p.Group(src, dst, item(1))
		p.Group(src, dst, item(2)) // fills the cap: closed, held for the tick
		for k := byte(0); k < 3; k++ {
			p.EnqueueNodeWith(src, 42, item(10+k), ClassData, 0) // the first leaves at once
		}
		p.FlushAll() // the node carrier leaves now
		p.FlushDeferred()
		sent := env.sent
		env.sent = nil
		if len(sent) != 3 || sent[1].DstGroup != 0 || sent[2].DstGroup != dst.GroupID {
			t.Fatalf("round %d sent %d messages, want a raw item, the node carrier, then the group carrier", round, len(sent))
		}
		if sent[2].MsgID != idOf(dst.GroupID, 2*round+1) || sent[1].MsgID != idOf(0, 2*round+2) {
			t.Fatalf("round %d: the group carrier closed first but was not numbered first", round)
		}
	}
}
