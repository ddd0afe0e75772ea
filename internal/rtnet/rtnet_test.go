package rtnet

import (
	"sync"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
)

// probe is a minimal actor.Node recording everything that happens to it.
type probe struct {
	mu       sync.Mutex
	started  bool
	stopped  bool
	msgs     []probeMsg
	timers   []any
	env      actor.Env
	onMsg    func(env actor.Env, from ids.NodeID, msg actor.Message)
	onTimer  func(env actor.Env, data any)
	startFn  func(env actor.Env)
	received chan struct{}
}

type probeMsg struct {
	from ids.NodeID
	msg  actor.Message
}

func newProbe() *probe { return &probe{received: make(chan struct{}, 1024)} }

func (p *probe) Start(env actor.Env) {
	p.mu.Lock()
	p.started = true
	p.env = env
	fn := p.startFn
	p.mu.Unlock()
	if fn != nil {
		fn(env)
	}
}

func (p *probe) Receive(from ids.NodeID, msg actor.Message) {
	p.mu.Lock()
	p.msgs = append(p.msgs, probeMsg{from, msg})
	fn := p.onMsg
	env := p.env
	p.mu.Unlock()
	if fn != nil {
		fn(env, from, msg)
	}
	select {
	case p.received <- struct{}{}:
	default:
	}
}

func (p *probe) Timer(_ actor.TimerID, data any) {
	p.mu.Lock()
	p.timers = append(p.timers, data)
	fn := p.onTimer
	env := p.env
	p.mu.Unlock()
	if fn != nil {
		fn(env, data)
	}
}

func (p *probe) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

func (p *probe) messageCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.msgs)
}

func (p *probe) timerCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.timers)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestStartRunsBeforeMessages(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()

	p := newProbe()
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	rt.Deliver(2, 1, "hello")
	waitFor(t, "message", func() bool { return p.messageCount() == 1 })
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		t.Fatal("Receive ran before Start")
	}
	if p.msgs[0].from != 2 || p.msgs[0].msg != "hello" {
		t.Fatalf("got %+v", p.msgs[0])
	}
}

func TestLoopbackSend(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()

	a, b := newProbe(), newProbe()
	a.startFn = func(env actor.Env) { env.Send(2, "ping") }
	if err := rt.Add(2, b); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(1, a); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loopback delivery", func() bool { return b.messageCount() == 1 })
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.msgs[0].from != 1 || b.msgs[0].msg != "ping" {
		t.Fatalf("got %+v", b.msgs[0])
	}
}

func TestSendToUnknownNodeIsDropped(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()
	p := newProbe()
	p.startFn = func(env actor.Env) { env.Send(99, "void") }
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Invoke(1, func() {}); err != nil { // barrier: Start completed
		t.Fatal(err)
	}
}

func TestDuplicateAddFails(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()
	if err := rt.Add(1, newProbe()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(1, newProbe()); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
}

func TestTimerFiresOnce(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()
	p := newProbe()
	p.startFn = func(env actor.Env) { env.SetTimer(5*time.Millisecond, "tick") }
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "timer", func() bool { return p.timerCount() == 1 })
	time.Sleep(20 * time.Millisecond)
	if got := p.timerCount(); got != 1 {
		t.Fatalf("timer fired %d times", got)
	}
}

func TestInvokeRunsInLoop(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()
	p := newProbe()
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := rt.Invoke(1, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Invoke did not run fn")
	}
	if err := rt.Invoke(42, func() {}); err != ErrStopped {
		t.Fatalf("Invoke(unknown) = %v, want ErrStopped", err)
	}
}

func TestRemoveRunsStop(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()
	p := newProbe()
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	rt.Remove(1)
	waitFor(t, "stop", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.stopped
	})
	if rt.Alive(1) {
		t.Fatal("node still alive after Remove")
	}
}

func TestCrashSkipsStopAndDropsQueue(t *testing.T) {
	rt := New(Options{})
	p := newProbe()
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	rt.Crash(1)
	rt.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		t.Fatal("Stop ran after Crash")
	}
}

func TestCloseIsIdempotentAndUnblocksInvoke(t *testing.T) {
	rt := New(Options{})
	p := newProbe()
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Invoke(1, func() {}); err != ErrStopped {
		t.Fatalf("Invoke after Close = %v, want ErrStopped", err)
	}
}

func TestMessageOrderPreservedBetweenPair(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()
	b := newProbe()
	if err := rt.Add(2, b); err != nil {
		t.Fatal(err)
	}
	a := newProbe()
	const total = 200
	a.startFn = func(env actor.Env) {
		for i := 0; i < total; i++ {
			env.Send(2, i)
		}
	}
	if err := rt.Add(1, a); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all messages", func() bool { return b.messageCount() == total })
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, m := range b.msgs {
		if m.msg != i {
			t.Fatalf("msg %d out of order: got %v", i, m.msg)
		}
	}
}

// transportRecorder captures messages routed off-runtime.
type transportRecorder struct {
	mu    sync.Mutex
	sent  []probeMsg
	addrs map[ids.NodeID]string
}

func (tr *transportRecorder) Send(from, to ids.NodeID, msg actor.Message) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.sent = append(tr.sent, probeMsg{from: from, msg: msg})
}

func (tr *transportRecorder) LearnAddr(id ids.NodeID, addr string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.addrs == nil {
		tr.addrs = make(map[ids.NodeID]string)
	}
	tr.addrs[id] = addr
}

func (tr *transportRecorder) Close() error { return nil }

func TestRemoteSendsGoToTransport(t *testing.T) {
	tr := &transportRecorder{}
	rt := New(Options{Transport: tr})
	defer rt.Close()
	p := newProbe()
	p.startFn = func(env actor.Env) {
		env.Send(7, "remote")
		if ab, ok := env.(actor.AddrBook); ok {
			ab.LearnAddr(7, "127.0.0.1:9999")
		}
	}
	if err := rt.Add(1, p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Invoke(1, func() {}); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.sent) != 1 || tr.sent[0].msg != "remote" {
		t.Fatalf("transport saw %+v", tr.sent)
	}
	if tr.addrs[7] != "127.0.0.1:9999" {
		t.Fatalf("address book = %v", tr.addrs)
	}
}
