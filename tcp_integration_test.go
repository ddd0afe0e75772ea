package atum_test

// End-to-end integration: a full Atum cluster where every node lives in its
// own real-time runtime and all traffic crosses real TCP sockets on
// localhost — the deployment configuration (cmd/atum-node runs exactly this,
// one node per process).

import (
	"sync"
	"testing"
	"time"

	"atum"
	"atum/internal/ids"
	"atum/internal/rtnet"
	"atum/internal/tcpnet"
)

// tcpNode bundles one node with its private runtime and transport.
type tcpNode struct {
	rt   *atum.RealtimeRuntime
	tr   *tcpnet.Transport
	node *atum.Node
	col  *collector
}

func startTCPNode(t *testing.T, id uint64, seed int64) *tcpNode {
	t.Helper()
	// The runtime and transport reference each other: create the runtime
	// with a late-bound transport shim.
	var shim transportShim
	rt := atum.NewRealtimeRuntime(atum.RealtimeOptions{Seed: seed, Transport: &shim})
	tr, err := tcpnet.New(ids.NodeID(id), rt.RT, tcpnet.Options{
		ListenAddr: "127.0.0.1:0",
		Codec:      atum.WireMessageCodec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	shim.set(tr)

	col := &collector{}
	node, err := rt.AddNodeWith(atum.Callbacks{Deliver: col.deliver}, func(c *atum.Config) {
		// Node IDs are per-instance-global; each node here lives in its own
		// runtime, so the runtime-assigned ID (always 1) must be replaced.
		c.Identity = atum.Identity{ID: ids.NodeID(id), Addr: tr.Addr()}
	})
	if err != nil {
		t.Fatal(err)
	}
	tn := &tcpNode{rt: rt, tr: tr, node: node, col: col}
	t.Cleanup(func() { rt.Close() })
	return tn
}

// transportShim lets the runtime be constructed before the transport (which
// needs the runtime as its deliverer).
type transportShim struct {
	mu sync.Mutex
	tr *tcpnet.Transport
}

var _ rtnet.Transport = (*transportShim)(nil)

func (s *transportShim) set(tr *tcpnet.Transport) {
	s.mu.Lock()
	s.tr = tr
	s.mu.Unlock()
}

func (s *transportShim) get() *tcpnet.Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tr
}

func (s *transportShim) Send(from, to atum.NodeID, msg any) {
	if tr := s.get(); tr != nil {
		tr.Send(from, to, msg)
	}
}

func (s *transportShim) LearnAddr(id atum.NodeID, addr string) {
	if tr := s.get(); tr != nil {
		tr.LearnAddr(id, addr)
	}
}

func (s *transportShim) Close() error {
	if tr := s.get(); tr != nil {
		return tr.Close()
	}
	return nil
}

func TestAtumOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster test (seconds of wall clock)")
	}
	const n = 4
	nodes := make([]*tcpNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = startTCPNode(t, uint64(i+1), int64(1000+i))
	}

	if err := nodes[0].rt.Bootstrap(nodes[0].node); err != nil {
		t.Fatal(err)
	}
	contact := nodes[0].node.Identity()
	for i := 1; i < n; i++ {
		// Joins go through real TCP: the joiner only knows the contact's
		// address; every other address is learned from compositions.
		if err := nodes[i].rt.Join(nodes[i].node, contact); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		i := i
		waitCond(t, "tcp join", 60*time.Second, func() bool {
			return nodes[i].rt.IsMember(nodes[i].node)
		})
	}

	if err := nodes[1].rt.BroadcastWith(nodes[1].node, []byte("across sockets"), atum.BroadcastOpts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		i := i
		waitCond(t, "tcp delivery", 60*time.Second, func() bool { return nodes[i].col.count() >= 1 })
		nodes[i].col.mu.Lock()
		if string(nodes[i].col.got[0]) != "across sockets" {
			t.Fatalf("node %d delivered %q", i, nodes[i].col.got[0])
		}
		nodes[i].col.mu.Unlock()
	}

	// Every transport must have actually moved traffic.
	for i := 0; i < n; i++ {
		if st := nodes[i].tr.Stats(); st.Delivered == 0 {
			t.Fatalf("node %d transport delivered nothing: %+v", i, st)
		}
	}
}

func TestAtumOverTCPLeaveAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster test (seconds of wall clock)")
	}
	a := startTCPNode(t, 1, 2000)
	b := startTCPNode(t, 2, 2001)

	if err := a.rt.Bootstrap(a.node); err != nil {
		t.Fatal(err)
	}
	if err := b.rt.Join(b.node, a.node.Identity()); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "join", 60*time.Second, func() bool { return b.rt.IsMember(b.node) })

	if err := b.rt.Leave(b.node); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "leave", 60*time.Second, func() bool { return !b.rt.IsMember(b.node) })
	waitCond(t, "shrink", 60*time.Second, func() bool { return a.rt.GroupSize(a.node) == 1 })

	if err := b.rt.Join(b.node, a.node.Identity()); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "rejoin", 60*time.Second, func() bool { return b.rt.IsMember(b.node) })
}
