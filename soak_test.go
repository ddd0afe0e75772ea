package atum_test

// Sustained load: a stream of broadcasts much longer than the inbox's
// per-source bound. Each link between two vgroups with stable epochs carries
// every broadcast's votes under one source composition, so a receiver that
// counted accepted messages against that bound stopped delivering after about
// a thousand of them, while BroadcastWith kept returning nil.

import (
	"fmt"
	"testing"
	"time"

	"atum"
)

// TestSoakEveryBroadcastDeliveredOnce publishes 3 000 broadcasts of 64 B from
// one member of a 24-node ModeSync system with frozen membership, at 50 and at
// 200 per second, and requires every node to deliver each exactly once.
func TestSoakEveryBroadcastDeliveredOnce(t *testing.T) {
	for _, rate := range []int{50, 200} {
		t.Run(fmt.Sprintf("%d per second", rate), func(t *testing.T) {
			const size, total = 24, 3000
			c := atum.NewSimCluster(atum.SimOptions{Seed: 1})
			counts := make([]map[string]int, size)
			nodes := make([]*atum.Node, size)
			for i := range nodes {
				counts[i] = make(map[string]int)
				got := counts[i]
				nodes[i] = c.AddNodeWith(atum.Callbacks{Deliver: func(d atum.Delivery) { got[string(d.Data)]++ }},
					func(cfg *atum.Config) {
						cfg.DisableShuffle = true // deliveries are not replayed across moves
						cfg.EvictAfter = time.Hour
					})
				c.Run(10 * time.Millisecond)
				if i == 0 {
					if err := nodes[0].Bootstrap(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := nodes[i].Join(nodes[0].Identity()); err != nil {
					t.Fatal(err)
				}
				if !c.RunUntil(nodes[i].IsMember, 2*time.Minute) {
					t.Fatalf("node %d did not join", i)
				}
			}
			c.Run(5 * time.Second)

			for i := 0; i < total; i++ {
				if err := nodes[0].BroadcastWith([]byte(fmt.Sprintf("soak %057d", i)), atum.BroadcastOpts{}); err != nil {
					t.Fatalf("broadcast %d: %v", i, err)
				}
				c.Run(time.Second / time.Duration(rate))
			}
			all := func() bool {
				for _, got := range counts {
					if len(got) < total {
						return false
					}
				}
				return true
			}
			c.RunUntil(all, time.Minute)

			short := 0
			for i, got := range counts {
				if len(got) != total {
					short++
					t.Logf("node %d delivered %d of %d broadcasts", i, len(got), total)
				}
				for data, n := range got {
					if n != 1 {
						t.Errorf("node %d delivered %q %d times", i, data, n)
					}
				}
			}
			if short > 0 {
				t.Errorf("%d of %d nodes missed broadcasts", short, size)
			}
			// No member is faulty: every payload comes over a link.
			for i, n := range nodes {
				if st := n.Stats(); st.PullsSent+st.CaughtUp != 0 {
					t.Errorf("node %d pulled %d payloads and was caught up %d times", i, st.PullsSent, st.CaughtUp)
				}
			}
		})
	}
}
