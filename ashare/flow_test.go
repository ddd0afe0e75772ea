package ashare

// Regression tests for GET behaviour under egress flow control: a chunk
// request shed at the sender's own bounded queue must fail the GET
// explicitly (all replicas exhausted), never wedge it silently.

import (
	"testing"
	"time"

	"atum"
)

// TestGetFailsFastWhenRequestsShed: with the egress queue toward the only
// replica full of equal-priority traffic, the GET's chunk request is
// rejected at the sender; the requester must treat the replica as failed
// and complete the GET with an explicit error instead of hanging on a
// phantom inflight request.
func TestGetFailsFastWhenRequestsShed(t *testing.T) {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 51})
	var svcs []*Service
	var nodes []*atum.Node
	for i := 0; i < 2; i++ {
		s := New(Options{})
		n := cluster.AddNodeWith(s.Callbacks(), func(cfg *atum.Config) {
			cfg.OnRawMessage = s.HandleRaw
		})
		s.Bind(n)
		svcs = append(svcs, s)
		nodes = append(nodes, n)
	}
	cluster.Run(10 * time.Millisecond)
	if err := nodes[0].Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Join(nodes[0].Identity()); err != nil {
		t.Fatal(err)
	}
	if !cluster.RunUntil(nodes[1].IsMember, time.Minute) {
		t.Fatal("join timed out")
	}

	// The replica (node 0) holds the file; the getter (node 1) knows the
	// metadata and the replica.
	content := []byte("flow-controlled chunk")
	meta := BuildMeta(nodes[0].Identity().ID, "f", content, 16)
	svcs[0].HoldReplica(meta, content)
	svcs[1].index.Put(meta)
	svcs[1].index.AddReplica(meta.Key, nodes[0].Identity().ID)

	// Fill the getter's egress queue toward the replica with equal-priority
	// (Control) traffic so the GET's own request overflows. Bogus requests
	// for an unknown file are simply ignored at the replica. The first item
	// and the first full carrier leave at once, so the flood runs to a depth
	// read from Stats, not to a count.
	bogus := FileKey{Owner: 99, Name: "nope"}
	replica := nodes[0].Identity().ID
	depth := func() int {
		for _, d := range nodes[1].Stats().Egress.Dests {
			if d.Node == replica {
				return d.Depth
			}
		}
		return 0
	}
	for i := 0; depth() < atum.NodeQueueLimit; i++ {
		if i == 2*atum.NodeQueueLimit {
			t.Fatalf("%d sends left the queue at depth %d, short of its limit %d", i, depth(), atum.NodeQueueLimit)
		}
		_ = nodes[1].SendRawWith(replica, chunkRequest{Key: bogus, Idx: i}, atum.SendOpts{})
	}

	done := make(chan error, 1)
	svcs[1].Get(meta.Key, func(_ []byte, _ int, err error) { done <- err })
	cluster.Run(5 * time.Second)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("GET succeeded although its request was shed; want an explicit all-replicas-failed error")
		}
	default:
		t.Fatal("GET neither completed nor failed: the shed request wedged it (phantom inflight)")
	}

	// Sanity: with a clear queue the same GET succeeds.
	cluster.Run(time.Second)
	svcs[1].Get(meta.Key, func(got []byte, _ int, err error) {
		if err != nil {
			t.Fatalf("retry GET failed: %v", err)
		}
		if string(got) != string(content) {
			t.Fatalf("retry GET returned %q", got)
		}
		done <- nil
	})
	cluster.Run(5 * time.Second)
	select {
	case <-done:
	default:
		t.Fatal("retry GET did not complete")
	}
}
