package simnet

import (
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
)

// echoNode replies to every "ping" with a "pong" and records what it saw.
type echoNode struct {
	env      actor.Env
	received []string
	times    []time.Duration
	timers   []string
	peer     ids.NodeID
}

type strMsg struct {
	S    string
	Size int
}

func (m strMsg) WireSize() int {
	if m.Size > 0 {
		return m.Size
	}
	return len(m.S)
}

func (n *echoNode) Start(env actor.Env) { n.env = env }
func (n *echoNode) Stop()               {}
func (n *echoNode) Receive(from ids.NodeID, msg actor.Message) {
	m, ok := msg.(strMsg)
	if !ok {
		return
	}
	n.received = append(n.received, m.S)
	n.times = append(n.times, n.env.Now())
	if m.S == "ping" {
		n.env.Send(from, strMsg{S: "pong"})
	}
}
func (n *echoNode) Timer(_ actor.TimerID, data any) {
	n.timers = append(n.timers, data.(string))
}

func TestPingPong(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstLatency(10 * time.Millisecond)})
	a, b := &echoNode{}, &echoNode{}
	net.Add(1, a)
	net.Add(2, b)
	net.Run(0) // process Start events
	a.env.Send(2, strMsg{S: "ping"})
	net.Run(time.Second)

	if len(b.received) != 1 || b.received[0] != "ping" {
		t.Fatalf("b received %v, want [ping]", b.received)
	}
	if len(a.received) != 1 || a.received[0] != "pong" {
		t.Fatalf("a received %v, want [pong]", a.received)
	}
	if got := b.times[0]; got != 10*time.Millisecond {
		t.Errorf("ping delivered at %v, want 10ms", got)
	}
	if got := a.times[0]; got != 20*time.Millisecond {
		t.Errorf("pong delivered at %v, want 20ms", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		net := New(Config{Seed: 42, Latency: UniformLatency(time.Millisecond, 20*time.Millisecond)})
		a, b := &echoNode{}, &echoNode{}
		net.Add(1, a)
		net.Add(2, b)
		net.Run(0)
		for i := 0; i < 10; i++ {
			a.env.Send(2, strMsg{S: "ping"})
		}
		net.Run(time.Second)
		return b.times
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) || len(t1) != 10 {
		t.Fatalf("lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestTimers(t *testing.T) {
	net := New(Config{Seed: 1})
	a := &echoNode{}
	net.Add(1, a)
	net.Run(0)
	a.env.SetTimer(50*time.Millisecond, "first")
	a.env.SetTimer(70*time.Millisecond, "second")
	net.Run(time.Second)

	if len(a.timers) != 2 || a.timers[0] != "first" || a.timers[1] != "second" {
		t.Errorf("timers = %v, want [first second]", a.timers)
	}
}

func TestCrashDropsDelivery(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstLatency(10 * time.Millisecond)})
	a, b := &echoNode{}, &echoNode{}
	net.Add(1, a)
	net.Add(2, b)
	net.Run(0)
	a.env.Send(2, strMsg{S: "ping"})
	net.Crash(2)
	net.Run(time.Second)
	if len(b.received) != 0 {
		t.Errorf("crashed node received %v", b.received)
	}
	if net.Alive(2) {
		t.Error("crashed node reported alive")
	}
	st := net.Stats()
	if st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestPartition(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstLatency(time.Millisecond)})
	a, b := &echoNode{}, &echoNode{}
	net.Add(1, a)
	net.Add(2, b)
	net.Run(0)
	net.SetPartitions([]ids.NodeID{1}, []ids.NodeID{2})
	a.env.Send(2, strMsg{S: "ping"})
	net.Run(100 * time.Millisecond)
	if len(b.received) != 0 {
		t.Fatalf("message crossed partition: %v", b.received)
	}
	net.Heal()
	a.env.Send(2, strMsg{S: "ping"})
	net.Run(200 * time.Millisecond)
	if len(b.received) != 1 {
		t.Fatalf("message not delivered after heal: %v", b.received)
	}
}

func TestLoss(t *testing.T) {
	net := New(Config{Seed: 7, Latency: ConstLatency(time.Millisecond), LossProb: 1.0})
	a, b := &echoNode{}, &echoNode{}
	net.Add(1, a)
	net.Add(2, b)
	net.Run(0)
	for i := 0; i < 20; i++ {
		a.env.Send(2, strMsg{S: "ping"})
	}
	net.Run(time.Second)
	if len(b.received) != 0 {
		t.Errorf("LossProb=1 still delivered %d messages", len(b.received))
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 MB/s egress; two 500 KB messages take 0.5s + 0.5s to serialize,
	// so the second arrives ~1s + latency after start.
	net := New(Config{
		Seed:        1,
		Latency:     ConstLatency(10 * time.Millisecond),
		BandwidthUp: 1 << 20,
	})
	a, b := &echoNode{}, &echoNode{}
	net.Add(1, a)
	net.Add(2, b)
	net.Run(0)
	a.env.Send(2, strMsg{S: "big1", Size: 512 * 1024})
	a.env.Send(2, strMsg{S: "big2", Size: 512 * 1024})
	net.Run(5 * time.Second)
	if len(b.received) != 2 {
		t.Fatalf("received %d messages, want 2", len(b.received))
	}
	gap := b.times[1] - b.times[0]
	if gap < 400*time.Millisecond || gap > 600*time.Millisecond {
		t.Errorf("serialization gap = %v, want ~500ms", gap)
	}
}

func TestIncastIngressSerialization(t *testing.T) {
	// Many senders, one receiver with limited ingress: deliveries spread out.
	net := New(Config{
		Seed:          1,
		Latency:       ConstLatency(time.Millisecond),
		BandwidthDown: 1 << 20, // 1 MB/s
	})
	recv := &echoNode{}
	net.Add(100, recv)
	senders := make([]*echoNode, 4)
	for i := range senders {
		senders[i] = &echoNode{}
		net.Add(ids.NodeID(i+1), senders[i])
	}
	net.Run(0)
	for _, s := range senders {
		s.env.Send(100, strMsg{S: "blob", Size: 256 * 1024}) // 0.25s each at 1MB/s
	}
	net.Run(10 * time.Second)
	if len(recv.received) != 4 {
		t.Fatalf("received %d, want 4", len(recv.received))
	}
	total := recv.times[3] - recv.times[0]
	if total < 700*time.Millisecond {
		t.Errorf("ingress serialization too fast: last-first = %v, want >= ~750ms", total)
	}
}

func TestRemoveCallsStop(t *testing.T) {
	net := New(Config{Seed: 1})
	s := &stopTracker{}
	net.Add(1, s)
	net.Run(0)
	net.Remove(1)
	if !s.stopped {
		t.Error("Remove did not call Stop")
	}
	if net.NumAlive() != 0 {
		t.Error("NumAlive != 0 after Remove")
	}
}

type stopTracker struct {
	echoNode
	stopped bool
}

func (s *stopTracker) Stop() { s.stopped = true }

func TestScheduleScript(t *testing.T) {
	net := New(Config{Seed: 1})
	var fired []time.Duration
	net.Schedule(30*time.Millisecond, func() { fired = append(fired, net.Now()) })
	net.Schedule(10*time.Millisecond, func() { fired = append(fired, net.Now()) })
	net.Run(time.Second)
	if len(fired) != 2 || fired[0] != 10*time.Millisecond || fired[1] != 30*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
	if net.Now() != time.Second {
		t.Errorf("Now = %v, want 1s", net.Now())
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate Add")
		}
	}()
	net := New(Config{Seed: 1})
	net.Add(1, &echoNode{})
	net.Add(1, &echoNode{})
}
