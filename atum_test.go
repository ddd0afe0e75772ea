package atum_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"atum"
	"atum/ashare"
	"atum/astream"
	"atum/asub"
	"atum/internal/simnet"
)

// buildCluster grows a small simulated instance and returns nodes.
func buildCluster(t *testing.T, seed int64, n int, net *simnet.Config,
	mk func(i int, c *atum.SimCluster) *atum.Node) (*atum.SimCluster, []*atum.Node) {
	t.Helper()
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: seed, NetConfig: net})
	nodes := make([]*atum.Node, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, mk(i, cluster))
	}
	cluster.Run(10 * time.Millisecond)
	if err := nodes[0].Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	for _, nd := range nodes[1:] {
		if err := nd.Join(nodes[0].Identity()); err != nil {
			t.Fatalf("join: %v", err)
		}
		if !cluster.RunUntil(nd.IsMember, 2*time.Minute) {
			t.Fatalf("node %v did not join", nd.Identity().ID)
		}
	}
	return cluster, nodes
}

// TestEngineLogsReachRuntimeSink: the engine's debug lines go to the runtime's
// log sink (here simnet.Config.Logf), attributed to the node that wrote them.
func TestEngineLogsReachRuntimeSink(t *testing.T) {
	var lines []string
	net := simnet.Config{Seed: 3, Latency: simnet.LANLatency(), Logf: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	_, nodes := buildCluster(t, 3, 2, &net, func(_ int, c *atum.SimCluster) *atum.Node {
		return c.AddNode(atum.Callbacks{Deliver: func(atum.Delivery) {}})
	})
	joiner := fmt.Sprintf(" %v] joined g", nodes[1].Identity().ID)
	for _, l := range lines {
		if strings.Contains(l, joiner) {
			return
		}
	}
	t.Fatalf("no %q line from the joiner among the %d lines the sink got: %q", joiner, len(lines), lines)
}

func TestPublicAPIBroadcast(t *testing.T) {
	got := make(map[atum.NodeID][]byte)
	cluster, nodes := buildCluster(t, 1, 5, nil, func(i int, c *atum.SimCluster) *atum.Node {
		var n *atum.Node
		n = c.AddNode(atum.Callbacks{
			Deliver: func(d atum.Delivery) { got[n.Identity().ID] = d.Data },
		})
		return n
	})
	if err := nodes[1].BroadcastWith([]byte("api"), atum.BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	cluster.Run(15 * time.Second)
	for _, n := range nodes {
		if string(got[n.Identity().ID]) != "api" {
			t.Errorf("node %v missed the broadcast", n.Identity().ID)
		}
	}
}

func TestASubPubSub(t *testing.T) {
	events := make(map[int][]asub.Event)
	var parts []*asub.Participant
	cluster, _ := buildCluster(t, 2, 4, nil, func(i int, c *atum.SimCluster) *atum.Node {
		cb, bind := asub.Wire("topic-x", asub.Options{
			OnEvent: func(ev asub.Event) { events[i] = append(events[i], ev) },
		})
		n := c.AddNode(cb)
		parts = append(parts, bind(n))
		return n
	})
	if err := parts[2].Publish([]byte("event-1")); err != nil {
		t.Fatal(err)
	}
	cluster.Run(15 * time.Second)
	for i := 0; i < 4; i++ {
		if len(events[i]) != 1 || string(events[i][0].Data) != "event-1" {
			t.Errorf("participant %d events = %v", i, events[i])
		}
		if len(events[i]) == 1 && events[i][0].Topic != "topic-x" {
			t.Errorf("wrong topic: %v", events[i][0].Topic)
		}
	}
}

func TestAShareEndToEnd(t *testing.T) {
	net := &simnet.Config{Seed: 3, Latency: simnet.LANLatency(),
		BandwidthUp: 100 << 20, BandwidthDown: 100 << 20}
	var services []*ashare.Service
	cluster, _ := buildCluster(t, 3, 4, net, func(i int, c *atum.SimCluster) *atum.Node {
		svc := ashare.New(ashare.Options{Rho: 3, SystemSize: 4, ChunkSize: 128 << 10, Corrupt: i == 3})
		n := c.AddNode(svc.Callbacks())
		svc.Bind(n)
		services = append(services, svc)
		return n
	})
	content := bytes.Repeat([]byte("shared-data"), 1<<15)
	meta, err := services[0].Put("f1", content)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Run(15 * time.Second)
	if hits := services[1].Search("f1"); len(hits) != 1 {
		t.Fatalf("search hits = %v", hits)
	}
	var gotContent []byte
	var gotErr error
	done := false
	services[1].Get(meta.Key, func(c []byte, _ int, err error) {
		gotContent, gotErr, done = c, err, true
	})
	if !cluster.RunUntil(func() bool { return done }, 2*time.Minute) {
		t.Fatal("GET did not complete")
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !bytes.Equal(gotContent, content) {
		t.Fatal("GET content mismatch")
	}
	// Delete propagates.
	if err := services[0].Delete("f1"); err != nil {
		t.Fatal(err)
	}
	cluster.Run(10 * time.Second)
	if _, ok := services[2].Index().Lookup(meta.Key); ok {
		t.Error("DELETE did not remove the index entry everywhere")
	}
}

func TestAStreamVerifiedDelivery(t *testing.T) {
	var services []*astream.Service
	cluster, _ := buildCluster(t, 4, 5, nil, func(i int, c *atum.SimCluster) *atum.Node {
		svc := astream.New(astream.Options{Mode: astream.Double})
		n := c.AddNode(svc.Callbacks())
		svc.Bind(n)
		services = append(services, svc)
		return n
	})
	payload := bytes.Repeat([]byte("s"), 50<<10)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := services[0].Publish(seq, payload); err != nil {
			t.Fatal(err)
		}
		cluster.Run(100 * time.Millisecond)
	}
	cluster.Run(20 * time.Second)
	for i, svc := range services {
		for seq := uint64(1); seq <= 5; seq++ {
			if !svc.Delivered(seq) {
				t.Errorf("node %d: chunk %d not delivered", i, seq)
			}
		}
	}
}
