// Streaming: AStream on a simulated cluster. The source publishes a 1 MB/s
// stream; digests travel through Atum (tier 1, single-cycle gossip) and the
// data through the push multicast (tier 2); receivers verify every chunk.
package main

import (
	"fmt"
	"os"
	"time"

	"atum"
	"atum/astream"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "streaming:", err)
		os.Exit(1)
	}
}

func run() error {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 11})

	const n = 6
	var nodes []*atum.Node
	var services []*astream.Service
	for i := 0; i < n; i++ {
		idx := i
		// Flow control (docs/API.md): tier-2 pushes ride PriorityBulk, and a
		// peer whose egress pressure reads Critical gets no pushes at all.
		svc := astream.New(astream.Options{
			Mode: astream.Double,
			OnChunk: func(c astream.Chunk) {
				if idx == n-1 { // log one receiver only
					fmt.Printf("receiver %d verified chunk %d (%d bytes)\n", idx+1, c.Seq, len(c.Data))
				}
			},
		})
		node := cluster.AddNode(svc.Callbacks())
		svc.Bind(node)
		nodes = append(nodes, node)
		services = append(services, svc)
	}
	cluster.Run(10 * time.Millisecond)

	if err := nodes[0].Bootstrap(); err != nil {
		return err
	}
	for _, nd := range nodes[1:] {
		if err := nd.Join(nodes[0].Identity()); err != nil {
			return err
		}
		if !cluster.RunUntil(nd.IsMember, time.Minute) {
			return fmt.Errorf("join timed out")
		}
	}

	payload := make([]byte, 100<<10) // 100 KiB every 100 ms = 1 MB/s
	for seq := uint64(1); seq <= 10; seq++ {
		if err := services[0].Publish(seq, payload); err != nil {
			return err
		}
		cluster.Run(100 * time.Millisecond)
	}
	cluster.Run(20 * time.Second)

	delivered := 0
	for seq := uint64(1); seq <= 10; seq++ {
		if services[n-1].Delivered(seq) {
			delivered++
		}
	}
	fmt.Printf("receiver %d verified %d/10 chunks\n", n, delivered)
	shed := uint64(0)
	for _, svc := range services {
		shed += svc.Shed()
	}
	fmt.Printf("tier-2 pushes shed under pressure: %d\n", shed)
	return nil
}
