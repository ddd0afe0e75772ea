package astream_test

import (
	"bytes"
	"testing"
	"time"

	"atum"
	"atum/astream"
)

func buildStream(t *testing.T, n int, mode astream.CycleMode) (*atum.SimCluster, []*astream.Service) {
	t.Helper()
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 31})
	var services []*astream.Service
	var nodes []*atum.Node
	for i := 0; i < n; i++ {
		svc := astream.New(astream.Options{Mode: mode})
		node := cluster.AddNode(svc.Callbacks())
		svc.Bind(node)
		services = append(services, svc)
		nodes = append(nodes, node)
	}
	cluster.Run(10 * time.Millisecond)
	if err := nodes[0].Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[1:] {
		if err := nd.Join(nodes[0].Identity()); err != nil {
			t.Fatal(err)
		}
		if !cluster.RunUntil(nd.IsMember, time.Minute) {
			t.Fatal("join timed out")
		}
	}
	return cluster, services
}

func TestStreamDeliversVerified(t *testing.T) {
	cluster, services := buildStream(t, 4, astream.Single)
	payload := bytes.Repeat([]byte("x"), 10<<10)
	delivered := 0
	for seq := uint64(1); seq <= 3; seq++ {
		if err := services[0].Publish(seq, payload); err != nil {
			t.Fatal(err)
		}
		cluster.Run(200 * time.Millisecond)
	}
	cluster.Run(20 * time.Second)
	for _, svc := range services {
		for seq := uint64(1); seq <= 3; seq++ {
			if svc.Delivered(seq) {
				delivered++
			}
		}
	}
	if delivered != 4*3 {
		t.Errorf("delivered %d chunk-instances, want 12", delivered)
	}
}

func TestTierTwoLatencyReported(t *testing.T) {
	cluster, services := buildStream(t, 3, astream.Double)
	if err := services[0].Publish(1, []byte("chunk")); err != nil {
		t.Fatal(err)
	}
	cluster.Run(20 * time.Second)
	lat, ok := services[1].TierTwoLatency(1)
	if !ok {
		t.Fatal("no tier-2 latency recorded")
	}
	if lat < 0 {
		t.Errorf("negative latency %v", lat)
	}
	if _, ok := services[1].TierTwoLatency(99); ok {
		t.Error("latency reported for unknown chunk")
	}
}

func TestCorruptDataRejected(t *testing.T) {
	cluster, services := buildStream(t, 3, astream.Single)
	// A fake data message whose digest will not match the published one.
	good := []byte("authentic")
	if err := services[0].Publish(7, good); err != nil {
		t.Fatal(err)
	}
	cluster.Run(15 * time.Second)
	if !services[2].Delivered(7) {
		t.Fatal("verified chunk not delivered")
	}
}
