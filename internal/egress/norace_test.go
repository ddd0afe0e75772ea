//go:build !race

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

const raceEnabled = false

// countEnv is a portEnv that counts its sends and keeps none, so that what a
// test measures is the port's allocations alone.
type countEnv struct {
	portEnv
	sends int
}

func (e *countEnv) Send(ids.NodeID, actor.Message) { e.sends++ }

// TestFanOutAllocatesPerCopy: the port pays per logical copy, not per
// destination member. A lean fan-out and a second speaker's turn (speak)
// allocate as many objects toward a vgroup of 16 members as toward one of 4:
// the copy is boxed once and the order is drawn into the port's buffer.
func TestFanOutAllocatesPerCopy(t *testing.T) {
	const lag = 3 * time.Millisecond
	members := func(base ids.NodeID, n int) []ids.NodeID {
		out := make([]ids.NodeID, n)
		for i := range out {
			out[i] = base + ids.NodeID(i)
		}
		return out
	}
	src := compOf(5, 1, members(101, 16)...)
	// allocs measures one round toward dst: an item queued, the tick, and one
	// lag later the port's timer. self is the member of src whose copies are
	// measured.
	allocs := func(dst group.Composition, self ids.NodeID, it group.BatchItem) (float64, int) {
		env := &countEnv{portEnv: portEnv{now: time.Second, rng: rand.New(rand.NewSource(1))}}
		p := NewPort(Config{MaxBatch: 64, MaxBytes: 1 << 20, MaxWindow: 5 * time.Millisecond, Limit: 8,
			Now: env.Now, Arm: func(time.Duration) {}},
			Rules{Self: self, Sync: true, Carrier: 15,
				Holds: func(group.Key, ids.NodeID, crypto.Digest) bool { return false }, RelayLag: lag})
		p.Start(env)
		round := func() {
			p.Group(src, dst, it)
			p.FlushDeferred()
			env.now += lag
			p.OnTimer()
			env.now += time.Second
		}
		round() // warm the scheduler's queues and the order buffer
		env.sends = 0
		got := testing.AllocsPerRun(100, round)
		return got, env.sends / 101
	}
	lean := item(1)
	relayed := item(2)
	relayed.Digest, relayed.Relay = crypto.Hash(relayed.Payload), true
	for _, c := range []struct {
		name string
		gid  ids.GroupID // above src's: the port speaks second
		it   group.BatchItem
	}{
		{"lean fan-out", 3, lean},
		{"speak", 3, relayed},
	} {
		var want float64
		for _, n := range []int{4, 16} {
			dst := compOf(c.gid, 1, members(301, n)...)
			// The member of src that serves dst's first member serves one
			// member of a destination of 4 or of 16 alike.
			self := src.Members[group.RelaySender(src, dst, 0)].ID
			got, sends := allocs(dst, self, c.it)
			if sends != n {
				t.Fatalf("%s to %d members: %d copies a round, want %d", c.name, n, sends, n)
			}
			if n == 4 {
				want = got
			} else if got != want {
				t.Errorf("%s: %.0f objects a round to 16 members, %.0f to 4; want the same", c.name, got, want)
			}
		}
	}
}
