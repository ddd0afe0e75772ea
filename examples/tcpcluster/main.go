// Tcpcluster demonstrates Atum's deployment configuration in a single
// process: five nodes, each with its own real-time runtime and its own TCP
// transport, bootstrapped and joined over localhost sockets — the same wiring
// cmd/atum-node uses across processes.
//
// Output: membership progress, then one broadcast delivered at every node.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"atum"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/tcpnet"
)

const numNodes = 5

// member is one node with its private runtime and transport.
type member struct {
	rt   *atum.RealtimeRuntime
	tr   *tcpnet.Transport
	node *atum.Node
}

// lateTransport defers the transport binding (runtime is constructed first).
type lateTransport struct {
	mu sync.Mutex
	tr *tcpnet.Transport
}

func (l *lateTransport) get() *tcpnet.Transport {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr
}

func (l *lateTransport) set(tr *tcpnet.Transport) {
	l.mu.Lock()
	l.tr = tr
	l.mu.Unlock()
}

func (l *lateTransport) Send(from, to ids.NodeID, msg any) {
	if tr := l.get(); tr != nil {
		tr.Send(from, to, msg)
	}
}

func (l *lateTransport) LearnAddr(id ids.NodeID, addr string) {
	if tr := l.get(); tr != nil {
		tr.LearnAddr(id, addr)
	}
}

func (l *lateTransport) Close() error {
	if tr := l.get(); tr != nil {
		return tr.Close()
	}
	return nil
}

func startMember(id uint64, deliver func(atum.Delivery)) (*member, error) {
	var shim lateTransport
	rt := atum.NewRealtimeRuntime(atum.RealtimeOptions{Seed: int64(id), Transport: &shim})
	tr, err := tcpnet.New(ids.NodeID(id), rt.RT, tcpnet.Options{
		ListenAddr: "127.0.0.1:0",
		Codec:      atum.WireMessageCodec(),
	})
	if err != nil {
		rt.Close()
		return nil, err
	}
	shim.set(tr)
	node, err := rt.AddNodeWith(atum.Callbacks{Deliver: deliver}, func(c *atum.Config) {
		c.Identity = atum.Identity{ID: ids.NodeID(id), Addr: tr.Addr()}
		c.Scheme = crypto.Ed25519Scheme{}
	})
	if err != nil {
		rt.Close()
		return nil, err
	}
	return &member{rt: rt, tr: tr, node: node}, nil
}

func main() {
	var mu sync.Mutex
	delivered := make(map[uint64]string)

	members := make([]*member, numNodes)
	for i := range members {
		id := uint64(i + 1)
		m, err := startMember(id, func(d atum.Delivery) {
			mu.Lock()
			delivered[id] = string(d.Data)
			mu.Unlock()
		})
		if err != nil {
			log.Fatal(err)
		}
		defer m.rt.Close()
		members[i] = m
		fmt.Printf("node n%d listening on %s\n", id, m.tr.Addr())
	}

	if err := members[0].rt.Bootstrap(members[0].node); err != nil {
		log.Fatal(err)
	}
	fmt.Println("n1 bootstrapped a new instance")

	contact := members[0].node.Identity()
	for _, m := range members[1:] {
		if err := m.rt.Join(m.node, contact); err != nil {
			log.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, m := range members[1:] {
		for !m.rt.IsMember(m.node) {
			if time.Now().After(deadline) {
				log.Fatal("joins timed out")
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Printf("n%d joined (vgroup size %d)\n", m.node.Identity().ID, m.rt.GroupSize(m.node))
	}

	msg := "hello from n3, over real sockets"
	if err := members[2].rt.BroadcastWith(members[2].node, []byte(msg), atum.BroadcastOpts{}); err != nil {
		log.Fatal(err)
	}
	for {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		if n == numNodes {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("broadcast incomplete: %d/%d", n, numNodes)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := 1; i <= numNodes; i++ {
		fmt.Printf("n%d delivered: %q\n", i, delivered[uint64(i)])
	}

	var sent, delv int64
	for _, m := range members {
		st := m.tr.Stats()
		sent += st.Sent
		delv += st.Delivered
	}
	fmt.Printf("transport totals: %d envelopes sent, %d delivered over TCP\n", sent, delv)
}
