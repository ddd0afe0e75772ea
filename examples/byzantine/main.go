// Byzantine: Atum masking arbitrary faults (paper §6.1.3).
//
// A 20-node synchronous system absorbs a batch of Byzantine nodes running
// the paper's Sync-experiment behaviour — they heartbeat (so they are not
// evicted) and propose to evict every other member of their vgroup, votes
// their vgroup commits and that, short of f+1, evict nobody — plus one silent
// node, which sends nothing, heartbeats included, and is evicted for it. Broadcast latency is measured before and after the faults
// are injected: because no vgroup accumulates more than f faults, delivery is
// unaffected (the paper's headline "no performance decay despite 5.8%
// Byzantine nodes").
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"os"
	"time"

	"atum"
)

const (
	correctNodes = 20
	byzNodes     = 3
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "byzantine:", err)
		os.Exit(1)
	}
}

func run() error {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 99})

	type delivery struct {
		at  time.Duration
		msg string
	}
	delivered := make(map[atum.NodeID][]delivery)
	var all []*atum.Node

	newNode := func(behavior atum.Behavior) *atum.Node {
		var n *atum.Node
		n = cluster.AddNode(atum.Callbacks{
			Deliver: func(d atum.Delivery) {
				id := n.Identity().ID
				delivered[id] = append(delivered[id], delivery{at: cluster.Now(), msg: string(d.Data)})
			},
		})
		n.Inner().SetBehavior(behavior)
		all = append(all, n)
		return n
	}

	// Grow a correct system first.
	nodes := []*atum.Node{newNode(atum.BehaviorCorrect)}
	cluster.Run(10 * time.Millisecond)
	if err := nodes[0].Bootstrap(); err != nil {
		return err
	}
	contact := nodes[0].Identity()
	for len(nodes) < correctNodes {
		n := newNode(atum.BehaviorCorrect)
		if err := n.Join(contact); err != nil {
			return err
		}
		if !cluster.RunUntil(n.IsMember, 2*time.Minute) {
			return fmt.Errorf("join timed out")
		}
		nodes = append(nodes, n)
	}
	fmt.Printf("grown to %d correct nodes at t=%v\n", len(nodes), cluster.Now().Round(time.Second))

	measure := func(label string, rounds int) (time.Duration, error) {
		var worstTotal time.Duration
		for r := 0; r < rounds; r++ {
			msg := fmt.Sprintf("%s-%d", label, r)
			start := cluster.Now()
			if err := nodes[0].BroadcastWith([]byte(msg), atum.BroadcastOpts{}); err != nil {
				return 0, err
			}
			cluster.RunUntil(func() bool {
				count := 0
				for _, n := range nodes {
					if !n.IsMember() {
						continue
					}
					for _, d := range delivered[n.Identity().ID] {
						if d.msg == msg {
							count++
							break
						}
					}
				}
				live := 0
				for _, n := range nodes {
					if n.IsMember() {
						live++
					}
				}
				return count >= live
			}, 2*time.Minute)
			worst := time.Duration(0)
			for _, n := range nodes {
				for _, d := range delivered[n.Identity().ID] {
					if d.msg == msg && d.at-start > worst {
						worst = d.at - start
					}
				}
			}
			worstTotal += worst
		}
		return worstTotal / time.Duration(rounds), nil
	}

	before, err := measure("clean", 5)
	if err != nil {
		return err
	}
	fmt.Printf("failure-free broadcast latency (worst member, mean of 5): %v\n", before.Round(time.Millisecond))

	// Inject the Byzantine cohort: they join correctly, then misbehave —
	// heartbeat-only nodes propose to evict every correct peer; the silent
	// node just disappears without leaving, and its vgroup evicts it after
	// EvictAfter (6 s here) of silence.
	for i := 0; i < byzNodes; i++ {
		n := newNode(atum.BehaviorHeartbeatOnly)
		if err := n.Join(contact); err != nil {
			return err
		}
		if !cluster.RunUntil(n.IsMember, 2*time.Minute) {
			return fmt.Errorf("byzantine join timed out")
		}
	}
	silent := newNode(atum.BehaviorSilent)
	if err := silent.Join(contact); err != nil {
		return err
	}
	cluster.RunUntil(silent.IsMember, 2*time.Minute)
	frac := float64(byzNodes+1) / float64(correctNodes+byzNodes+1) * 100
	fmt.Printf("injected %d heartbeat-only + 1 silent Byzantine nodes (%.1f%% of the system)\n",
		byzNodes, frac)

	cluster.Run(30 * time.Second) // let the adversary do its worst

	after, err := measure("hostile", 5)
	if err != nil {
		return err
	}
	fmt.Printf("broadcast latency with Byzantine nodes:                   %v\n", after.Round(time.Millisecond))
	fmt.Printf("evictions of correct members triggered by the adversary: ")
	evicted := 0
	for _, n := range nodes {
		if !n.IsMember() {
			evicted++
		}
	}
	fmt.Printf("%d\n", evicted)
	var evictions uint64
	for _, n := range all {
		evictions += n.Stats().Evictions
	}
	fmt.Printf("members that evicted the silent node once its heartbeats stopped: %d\n", evictions)

	switch {
	case evicted > 0:
		return fmt.Errorf("%d correct members lost membership", evicted)
	case after > 3*before+2*time.Second:
		return fmt.Errorf("latency decayed: %v -> %v", before, after)
	default:
		fmt.Println("\nno performance decay, no correct member evicted — faults masked inside vgroups")
	}
	return nil
}
