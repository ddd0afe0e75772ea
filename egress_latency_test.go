package atum_test

// System-level pin for the adaptive flush window's idle path: a single
// broadcast on a quiet ModeAsync cluster must reach every member no later
// than it would with a carrier cap of one item (GossipMaxBatch=1, which can
// never hold an item back). The egress scheduler sends idle traffic at
// enqueue time — the zero-window fast path — so batching must cost nothing
// when there is nothing to batch with.

import (
	"testing"
	"time"

	"atum"
)

// measureIdleLatency grows a small ModeAsync cluster, lets it go idle, then
// issues single broadcasts well apart and returns each broadcast's
// worst-member delivery latency.
func measureIdleLatency(t *testing.T, maxBatch int, seed int64) []time.Duration {
	t.Helper()
	deliverAt := make(map[atum.NodeID]map[string]time.Duration)
	var cluster *atum.SimCluster
	var nodes []*atum.Node
	mk := func(c *atum.SimCluster) *atum.Node {
		var nd *atum.Node
		nd = c.AddNodeWith(atum.Callbacks{
			Deliver: func(d atum.Delivery) {
				id := nd.Identity().ID
				if deliverAt[id] == nil {
					deliverAt[id] = make(map[string]time.Duration)
				}
				deliverAt[id][string(d.Data)] = cluster.Now()
			},
		}, func(cfg *atum.Config) {
			cfg.GossipMaxBatch = maxBatch
		})
		return nd
	}
	cluster = atum.NewSimCluster(atum.SimOptions{Seed: seed, Mode: atum.ModeAsync})
	first := mk(cluster)
	nodes = append(nodes, first)
	cluster.Run(10 * time.Millisecond)
	if err := first.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		nd := mk(cluster)
		cluster.Run(10 * time.Millisecond)
		if err := nd.Join(first.Identity()); err != nil {
			t.Fatal(err)
		}
		if !cluster.RunUntil(nd.IsMember, 2*time.Minute) {
			t.Fatalf("node %d did not join", i)
		}
		nodes = append(nodes, nd)
	}
	cluster.Run(5 * time.Second) // fully idle

	var lats []time.Duration
	for b := 0; b < 4; b++ {
		payload := "idle-" + string(rune('a'+b))
		start := cluster.Now()
		if err := nodes[1].BroadcastWith([]byte(payload), atum.BroadcastOpts{}); err != nil {
			t.Fatal(err)
		}
		ok := cluster.RunUntil(func() bool {
			for _, nd := range nodes {
				if !nd.IsMember() {
					continue
				}
				if _, got := deliverAt[nd.Identity().ID][payload]; !got {
					return false
				}
			}
			return true
		}, 30*time.Second)
		if !ok {
			t.Fatalf("broadcast %q not delivered everywhere", payload)
		}
		worst := time.Duration(0)
		for _, nd := range nodes {
			if !nd.IsMember() {
				continue
			}
			if at := deliverAt[nd.Identity().ID][payload]; at-start > worst {
				worst = at - start
			}
		}
		lats = append(lats, worst)
		cluster.Run(2 * time.Second) // return to idle between broadcasts
	}
	return lats
}

func TestAsyncIdleLatencyNoWorseThanUnbatched(t *testing.T) {
	batched := measureIdleLatency(t, 0, 3) // default: egress scheduler on
	unbatched := measureIdleLatency(t, 1, 3)
	// Tiny slack for event-order jitter; well under the 5ms window cap this
	// test exists to keep off the idle path.
	const slack = 500 * time.Microsecond
	for i := range batched {
		if batched[i] > unbatched[i]+slack {
			t.Errorf("idle broadcast %d: batched %v > unbatched %v — the adaptive window added latency",
				i, batched[i], unbatched[i])
		}
	}
	t.Logf("batched:   %v", batched)
	t.Logf("unbatched: %v", unbatched)
}
