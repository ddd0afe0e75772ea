package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
)

// chooser is where a model run draws its schedule from: a seeded
// *rand.Rand, or the bytes of a fuzz input.
type chooser interface{ Intn(n int) int }

// byteChooser reads one choice per byte and answers 0 once the bytes run out.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// refEvent is one pending event of the reference model.
type refEvent struct {
	at     time.Duration
	seq    uint64
	id     int
	timer  actor.TimerID // nonzero for a timer
	silent bool          // a cancelled timer: it pops, but nothing fires
}

// model runs a Network and a reference queue through one schedule: the
// reference keeps its pending events in a list sorted by (at, seq) and pops
// the head. Every event the Network fires must be the reference's next one,
// at the same Now().
type model struct {
	t       testing.TB
	net     *Network
	env     actor.Env
	c       chooser
	now     time.Duration
	seq     uint64
	pending []refEvent
	nextID  int
	budget  int  // events left to schedule, so that every run ends
	fired   bool // an event fired during the current Step
	inRun   bool // inside Run: cancelled timers pop unseen
}

// modelNode hands its timer fires to the model.
type modelNode struct {
	env  actor.Env
	fire func(id int)
}

func (n *modelNode) Start(env actor.Env)               { n.env = env }
func (n *modelNode) Stop()                             {}
func (n *modelNode) Receive(ids.NodeID, actor.Message) {}
func (n *modelNode) Timer(_ actor.TimerID, data any)   { n.fire(data.(int)) }

// checkEventOrder drives ops random operations (schedule, set a timer,
// cancel one, Step, Run) against a Network and the reference, then drains
// both, failing t at the first difference.
func checkEventOrder(t testing.TB, c chooser, ops int) {
	net := New(Config{Seed: 1})
	node := &modelNode{}
	net.Add(1, node)
	net.Run(0)
	m := &model{t: t, net: net, env: node.env, c: c, budget: 4 * ops}
	node.fire = m.fire
	for i := 0; i < ops; i++ {
		switch c.Intn(7) {
		case 0, 1:
			m.add(c.Intn(2) == 0)
		case 2:
			m.cancel()
		case 3, 4:
			m.step()
		case 5:
			m.run()
		case 6:
			for m.c.Intn(4) != 0 && m.step() {
			}
		}
	}
	for m.step() {
	}
}

// delay draws zero, a time in the past, one of a few equal delays, or a
// spread-out one.
func (m *model) delay() time.Duration {
	switch m.c.Intn(5) {
	case 0:
		return 0
	case 1:
		return -time.Duration(1+m.c.Intn(3)) * time.Millisecond
	case 2:
		return time.Duration(m.c.Intn(3)) * time.Millisecond
	default:
		return time.Duration(m.c.Intn(50)) * 100 * time.Microsecond
	}
}

// add schedules one event, a function or a timer, on both sides.
func (m *model) add(timer bool) {
	if m.budget == 0 {
		return
	}
	m.budget--
	m.nextID++
	id, d := m.nextID, m.delay()
	e := refEvent{id: id}
	if timer {
		e.timer = m.env.SetTimer(d, id)
	} else {
		m.net.Schedule(m.net.Now()+d, func() { m.fire(id) })
	}
	if d < 0 {
		d = 0
	}
	m.seq++
	e.at, e.seq = m.now+d, m.seq
	// e has the largest seq, so it goes after every event due no later.
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].at > e.at })
	m.pending = append(m.pending, refEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = e
}

// cancel cancels a pending timer, or now and then an ID that names none.
func (m *model) cancel() {
	var live []int
	for i, e := range m.pending {
		if e.timer != 0 && !e.silent {
			live = append(live, i)
		}
	}
	if len(live) == 0 || m.c.Intn(4) == 0 {
		m.env.CancelTimer(1 << 40)
		return
	}
	i := live[m.c.Intn(len(live))]
	m.env.CancelTimer(m.pending[i].timer)
	m.pending[i].silent = true
}

func (m *model) pop() (refEvent, bool) {
	if len(m.pending) == 0 {
		return refEvent{}, false
	}
	e := m.pending[0]
	m.pending = m.pending[1:]
	if e.at > m.now {
		m.now = e.at
	}
	return e, true
}

// fire is every event's callback: it must be the reference's next event.
// It then schedules up to two more from inside the callback.
func (m *model) fire(id int) {
	m.t.Helper()
	m.fired = true
	e, ok := m.pop()
	for ok && e.silent && m.inRun {
		e, ok = m.pop()
	}
	if !ok || e.silent || e.id != id {
		m.t.Fatalf("event %d fired at %v; the reference's next is %+v (ok=%v)", id, m.net.Now(), e, ok)
	}
	if m.net.Now() != m.now {
		m.t.Fatalf("event %d fired at Now()=%v, reference %v", id, m.net.Now(), m.now)
	}
	for k := m.c.Intn(3); k > 0; k-- {
		m.add(m.c.Intn(2) == 0)
	}
}

func (m *model) step() bool {
	m.t.Helper()
	m.fired = false
	ok := m.net.Step()
	if !m.fired {
		// Nothing fired: the queue was empty or a cancelled timer popped.
		e, rok := m.pop()
		if rok != ok || rok && !e.silent {
			m.t.Fatalf("Step()=%v fired nothing; the reference's next is %+v (ok=%v)", ok, e, rok)
		}
	}
	m.check("Step")
	return ok
}

// run calls Run(until), half the time with until exactly at a pending
// event, otherwise at a drawn delay from now (possibly in the past).
func (m *model) run() {
	m.t.Helper()
	until := m.now + m.delay()
	if len(m.pending) > 0 && m.c.Intn(2) == 0 {
		until = m.pending[m.c.Intn(len(m.pending))].at
	}
	m.inRun = true
	m.net.Run(until)
	m.inRun = false
	for len(m.pending) > 0 && m.pending[0].at <= until {
		if e, _ := m.pop(); !e.silent {
			m.t.Fatalf("Run(%v) returned with event %+v due", until, e)
		}
	}
	if m.now < until {
		m.now = until
	}
	m.check("Run")
}

func (m *model) check(op string) {
	m.t.Helper()
	if m.net.Now() != m.now {
		m.t.Fatalf("after %s: Now()=%v, reference %v", op, m.net.Now(), m.now)
	}
	if got := len(m.net.heap) + len(m.net.due) - m.net.dueHead; got != len(m.pending) {
		m.t.Fatalf("after %s: %d events pending, reference %d", op, got, len(m.pending))
	}
}

// TestQueueMatchesReference runs seeded random schedules (zero and equal
// delays, events scheduled from inside callbacks, Schedule in the past,
// cancelled timers, Run(until) with events at exactly until) against the
// reference model.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkEventOrder(t, rand.New(rand.NewSource(seed)), 300)
	}
}

// FuzzEventOrder is TestQueueMatchesReference with the schedule read from
// the fuzz input, one choice per byte.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 3, 5, 1, 0, 6, 1, 2})
	f.Add([]byte{1, 2, 4, 0, 1, 0, 0, 3, 5, 1, 2, 2, 0, 4, 6, 3, 3, 3, 1, 1, 5, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEventOrder(t, &byteChooser{b: data}, min(len(data), 400))
	})
}

// timerNode records the data of every timer that fires.
type timerNode struct {
	env   actor.Env
	fired []any
}

func (n *timerNode) Start(env actor.Env)               { n.env = env }
func (n *timerNode) Stop()                             {}
func (n *timerNode) Receive(ids.NodeID, actor.Message) {}
func (n *timerNode) Timer(_ actor.TimerID, data any)   { n.fired = append(n.fired, data) }

func TestCancelTimerSemantics(t *testing.T) {
	net := New(Config{Seed: 1})
	a := &timerNode{}
	net.Add(1, a)
	net.Run(0)
	env := a.env.(*nodeEnv)

	// A cancel before the timer fires suppresses it.
	id := a.env.SetTimer(10*time.Millisecond, "cancelled")
	a.env.CancelTimer(id)
	net.Run(net.Now() + time.Second)
	if len(a.fired) != 0 {
		t.Fatalf("cancelled timer fired: %v", a.fired)
	}

	// A cancel after the timer fired, or for an ID never issued, is a no-op
	// and leaves nothing behind.
	id = a.env.SetTimer(10*time.Millisecond, "fires")
	net.Run(net.Now() + time.Second)
	a.env.CancelTimer(id)
	a.env.CancelTimer(id + 1000)
	if len(a.fired) != 1 || a.fired[0] != "fires" {
		t.Fatalf("fired %v, want [fires]", a.fired)
	}
	if len(env.pending) != 0 {
		t.Fatalf("%d timers recorded as pending after every one fired or was cancelled", len(env.pending))
	}

	// A removed or a crashed node's pending timers never fire.
	b, c := &timerNode{}, &timerNode{}
	net.Add(2, b)
	net.Add(3, c)
	net.Run(net.Now())
	b.env.SetTimer(10*time.Millisecond, "removed")
	c.env.SetTimer(10*time.Millisecond, "crashed")
	net.Remove(2)
	net.Crash(3)
	net.Run(net.Now() + time.Second)
	if len(b.fired)+len(c.fired) != 0 {
		t.Fatalf("timers of a removed and a crashed node fired: %v, %v", b.fired, c.fired)
	}

	// A node re-added under the same ID gets only its own timers, never the
	// old incarnation's.
	old := &timerNode{}
	net.Add(4, old)
	net.Run(net.Now())
	old.env.SetTimer(50*time.Millisecond, "old")
	net.Crash(4)
	fresh := &timerNode{}
	net.Add(4, fresh)
	net.Run(net.Now())
	fresh.env.SetTimer(100*time.Millisecond, "fresh")
	net.Run(net.Now() + time.Second)
	if len(old.fired) != 0 || len(fresh.fired) != 1 || fresh.fired[0] != "fresh" {
		t.Fatalf("old incarnation fired %v, new one %v; want [] and [fresh]", old.fired, fresh.fired)
	}
}

// countNode counts what it receives and keeps nothing.
type countNode struct {
	env      actor.Env
	received int
}

func (n *countNode) Start(env actor.Env)               { n.env = env }
func (n *countNode) Stop()                             {}
func (n *countNode) Receive(ids.NodeID, actor.Message) { n.received++ }
func (n *countNode) Timer(actor.TimerID, any)          {}

// TestEventLoopAllocs: once the queue has grown, a message through send and
// both of its stages, and a timer set and fired, allocate nothing.
func TestEventLoopAllocs(t *testing.T) {
	net := New(Config{Seed: 1, Latency: ConstLatency(time.Millisecond)})
	a, b := &countNode{}, &countNode{}
	net.Add(1, a)
	net.Add(2, b)
	net.Run(0)
	var msg actor.Message = strMsg{S: "x"}
	var data any = "tick"
	for i := 0; i < 100; i++ {
		a.env.Send(2, msg)
		a.env.SetTimer(time.Millisecond, data)
	}
	net.Run(net.Now() + time.Second)

	if got := testing.AllocsPerRun(1000, func() {
		a.env.Send(2, msg)
		net.Step()
		net.Step()
	}); got != 0 {
		t.Errorf("Send and two Steps: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		a.env.SetTimer(time.Millisecond, data)
		net.Step()
	}); got != 0 {
		t.Errorf("SetTimer and one Step: %v allocations, want 0", got)
	}
	if b.received != 100+1001 {
		t.Errorf("%d messages received, want %d", b.received, 100+1001)
	}
}
