package ashare

import (
	"testing"
	"time"

	"atum"
)

// TestReplicaServesEmptyFile: an empty file is one empty chunk, at a
// replica as at the owner. A replica that stored no chunk for it would drop
// every request for chunk 0, and a GET routed to it would never complete.
func TestReplicaServesEmptyFile(t *testing.T) {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 52})
	// Node 1 replicates every file it hears of while fewer than 2 copies
	// exist: probability (ρ−c)/n = (2−1)/1.
	opts := []Options{{}, {Rho: 2, SystemSize: 1}, {}}
	var svcs []*Service
	var nodes []*atum.Node
	for _, o := range opts {
		s := New(o)
		n := cluster.AddNode(s.Callbacks())
		s.Bind(n)
		svcs = append(svcs, s)
		nodes = append(nodes, n)
	}
	cluster.Run(10 * time.Millisecond)
	if err := nodes[0].Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Identity()); err != nil {
			t.Fatal(err)
		}
		if !cluster.RunUntil(n.IsMember, time.Minute) {
			t.Fatal("join timed out")
		}
	}

	meta, err := svcs[0].Put("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	replica := nodes[1].Identity().ID
	replicated := func() bool {
		for _, r := range svcs[2].index.Replicas(meta.Key) {
			if r == replica {
				return true
			}
		}
		return false
	}
	if !cluster.RunUntil(replicated, time.Minute) {
		t.Fatal("node 1 never announced its replica")
	}

	// The getter (node 2) fetches from the replica alone.
	svcs[2].index = NewIndex()
	svcs[2].index.Put(meta)
	svcs[2].index.AddReplica(meta.Key, replica)
	done := make(chan error, 1)
	svcs[2].Get(meta.Key, func(content []byte, _ int, err error) {
		if err == nil && len(content) != 0 {
			t.Errorf("GET of an empty file returned %d bytes", len(content))
		}
		done <- err
	})
	cluster.Run(5 * time.Second)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("GET from the replica failed: %v", err)
		}
	default:
		t.Fatal("GET from the replica never completed: it stored no chunk to serve")
	}
}
