// File sharing: AShare on a simulated cluster with the bandwidth model.
// A node PUTs a file, the index propagates by broadcast, replication kicks
// in, and another node GETs it with chunk-level integrity checks — once with
// all replicas correct, once with a corrupting replica in the mix.
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"atum"
	"atum/ashare"
	"atum/internal/simnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "filesharing:", err)
		os.Exit(1)
	}
}

func run() error {
	net := simnet.Config{
		Seed:          3,
		Latency:       simnet.LANLatency(),
		BandwidthUp:   100 << 20,
		BandwidthDown: 100 << 20,
	}
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 3, NetConfig: &net})

	const n = 4
	var nodes []*atum.Node
	var services []*ashare.Service
	for i := 0; i < n; i++ {
		corrupt := i == n-1 // the last node serves corrupted chunks
		svc := ashare.New(ashare.Options{Rho: 3, SystemSize: n, ChunkSize: 256 << 10, Corrupt: corrupt})
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

	content := bytes.Repeat([]byte("atum!"), 1<<18) // ~1.3 MB
	meta, err := services[0].Put("dataset.bin", content)
	if err != nil {
		return err
	}
	cluster.Run(15 * time.Second) // index + replication propagate
	fmt.Printf("PUT %v (%d chunks); replicas known to reader: %d\n",
		meta.Key, meta.NumChunks(), len(services[1].Index().Replicas(meta.Key)))

	for _, hit := range services[1].Search("dataset") {
		fmt.Printf("SEARCH hit: %v (%d bytes)\n", hit.Key, hit.Size)
	}

	done := false
	services[1].Get(meta.Key, func(got []byte, retries int, err error) {
		done = true
		if err != nil {
			fmt.Println("GET failed:", err)
			return
		}
		fmt.Printf("GET ok: %d bytes, equal=%v, corrupt-chunk re-pulls=%d\n",
			len(got), bytes.Equal(got, content), retries)
	})
	cluster.RunUntil(func() bool { return done }, time.Minute)
	return nil
}
