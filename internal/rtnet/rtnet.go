// Package rtnet is the real-time runtime for Atum nodes: each node runs as
// one goroutine draining an unbounded mailbox, timers are wall-clock, and
// message transport is pluggable.
//
// The same protocol code that runs on the discrete-event simulator
// (internal/simnet) runs here unchanged: rtnet implements actor.Env and
// serializes Start/Receive/Timer/Stop per node, so protocol state needs no
// locks. Two transports are provided:
//
//   - the built-in loopback: nodes registered with the same Runtime reach
//     each other in process, with optional injected latency and loss;
//   - internal/tcpnet: length-prefixed frames over TCP for nodes spread over
//     multiple runtimes, processes, or hosts — engine messages and
//     registered application raw messages in the deterministic wire
//     envelope (docs/WIRE.md).
//
// Because node callbacks execute on the node's own goroutine, API calls that
// originate outside (Bootstrap, Join, Broadcast, ...) must be injected with
// Runtime.Invoke, which runs a closure inside the node's loop and waits for
// it to complete.
package rtnet

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
)

// Transport carries messages to nodes that are not registered with the local
// Runtime. Implementations must not block for long: Send is called from node
// loops.
type Transport interface {
	// Send delivers msg to the remote node to. Delivery is best-effort,
	// like the network itself; protocols recover from loss by timeout.
	Send(from, to ids.NodeID, msg actor.Message)
	// LearnAddr records a node's network address (actor.AddrBook pass-through).
	LearnAddr(id ids.NodeID, addr string)
	// Close releases transport resources.
	Close() error
}

// Options configures a Runtime.
type Options struct {
	// Transport, when set, receives messages addressed to nodes not
	// registered locally. When nil such messages are dropped.
	Transport Transport
	// Latency, when set, delays each loopback delivery by Latency(rng).
	// Remote sends are not delayed (the wire provides its own latency).
	Latency func(rng *rand.Rand) time.Duration
	// LossProb drops loopback messages with the given probability.
	LossProb float64
	// Seed seeds the runtime's and the nodes' random sources.
	Seed int64
	// Logf, when set, receives runtime debug logs.
	Logf func(format string, args ...any)
}

// Runtime hosts real-time nodes. Safe for concurrent use.
type Runtime struct {
	opts  Options
	start time.Time

	mu     sync.Mutex
	nodes  map[ids.NodeID]*rtNode
	rng    *rand.Rand
	closed bool

	wg sync.WaitGroup
}

// ErrStopped is returned by Invoke when the runtime or node is gone.
var ErrStopped = errors.New("rtnet: node stopped")

// New creates a real-time runtime.
func New(opts Options) *Runtime {
	return &Runtime{
		opts:  opts,
		start: time.Now(),
		nodes: make(map[ids.NodeID]*rtNode),
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
}

// Now returns time elapsed since the runtime started; all node clocks
// (Env.Now) share this origin.
func (r *Runtime) Now() time.Duration { return time.Since(r.start) }

// Add registers a node and starts its goroutine; the node's Start callback
// runs before any message or timer. Adding a live duplicate ID is an error.
func (r *Runtime) Add(id ids.NodeID, node actor.Node) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("rtnet: runtime closed")
	}
	if _, ok := r.nodes[id]; ok {
		return errors.New("rtnet: duplicate node " + id.String())
	}
	mix := uint64(r.opts.Seed) ^ uint64(id)*0x9e3779b97f4a7c15
	n := &rtNode{
		rt:      r,
		id:      id,
		node:    node,
		rng:     rand.New(rand.NewSource(int64(mix))),
		pending: make(map[actor.TimerID]*time.Timer),
	}
	n.cond = sync.NewCond(&n.mu)
	r.nodes[id] = n
	r.wg.Add(1)
	go n.loop(&r.wg)
	n.post(rtEvent{kind: evStart})
	return nil
}

// Remove gracefully stops a node: its Stop callback runs in the loop, then
// the goroutine exits. No-op for unknown nodes.
func (r *Runtime) Remove(id ids.NodeID) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	if ok {
		delete(r.nodes, id)
	}
	r.mu.Unlock()
	if ok {
		n.post(rtEvent{kind: evStop})
	}
}

// Crash fail-stops a node without running Stop: the mailbox is poisoned so
// queued and future events are discarded.
func (r *Runtime) Crash(id ids.NodeID) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	if ok {
		delete(r.nodes, id)
	}
	r.mu.Unlock()
	if ok {
		n.post(rtEvent{kind: evCrash})
	}
}

// Alive reports whether the node is registered and running.
func (r *Runtime) Alive(id ids.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.nodes[id]
	return ok
}

// NumAlive returns the number of registered nodes.
func (r *Runtime) NumAlive() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.nodes)
}

// Invoke runs fn inside the node's serialized loop and waits for completion.
// This is how external goroutines call into protocol state (Bootstrap, Join,
// Broadcast...). Returns ErrStopped if the node is not running.
func (r *Runtime) Invoke(id ids.NodeID, fn func()) error {
	r.mu.Lock()
	n, ok := r.nodes[id]
	r.mu.Unlock()
	if !ok {
		return ErrStopped
	}
	done := make(chan struct{})
	if !n.post(rtEvent{kind: evInvoke, fn: fn, done: done}) {
		return ErrStopped
	}
	<-done
	return nil
}

// Deliver injects a message from a remote sender into a local node's
// mailbox. Transports call this for inbound traffic. Unknown destinations
// are dropped, like the network would.
func (r *Runtime) Deliver(from, to ids.NodeID, msg actor.Message) {
	r.mu.Lock()
	n, ok := r.nodes[to]
	r.mu.Unlock()
	if ok {
		n.post(rtEvent{kind: evMsg, from: from, msg: msg})
	}
}

// Close stops every node (gracefully), waits for all loops to exit, and
// closes the transport.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	nodes := make([]*rtNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.nodes = make(map[ids.NodeID]*rtNode)
	r.mu.Unlock()

	for _, n := range nodes {
		n.post(rtEvent{kind: evStop})
	}
	r.wg.Wait()
	if r.opts.Transport != nil {
		return r.opts.Transport.Close()
	}
	return nil
}

// route sends a message from a local node: loopback if the destination is
// local (with optional injected latency/loss), transport otherwise.
func (r *Runtime) route(from, to ids.NodeID, msg actor.Message) {
	r.mu.Lock()
	dst, local := r.nodes[to]
	var delay time.Duration
	drop := false
	if local {
		if r.opts.LossProb > 0 && r.rng.Float64() < r.opts.LossProb {
			drop = true
		}
		if r.opts.Latency != nil {
			delay = r.opts.Latency(r.rng)
		}
	}
	r.mu.Unlock()

	switch {
	case drop:
	case local && delay > 0:
		time.AfterFunc(delay, func() { dst.post(rtEvent{kind: evMsg, from: from, msg: msg}) })
	case local:
		dst.post(rtEvent{kind: evMsg, from: from, msg: msg})
	case r.opts.Transport != nil:
		r.opts.Transport.Send(from, to, msg)
	}
}

func (r *Runtime) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// --- per-node state ---

type evKind int

const (
	evStart evKind = iota + 1
	evMsg
	evTimer
	evInvoke
	evStop
	evCrash
)

type rtEvent struct {
	kind evKind
	from ids.NodeID
	msg  actor.Message
	tid  actor.TimerID
	data any
	fn   func()
	done chan struct{}
}

type rtNode struct {
	rt   *Runtime
	id   ids.NodeID
	node actor.Node
	rng  *rand.Rand

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []rtEvent
	dead   bool // no further events accepted
	crash  bool // poisoned: skip Stop
	closed bool // loop exited

	timerMu  sync.Mutex
	timerSeq uint64
	pending  map[actor.TimerID]*time.Timer
}

// post enqueues an event; reports false if the node no longer accepts events.
func (n *rtNode) post(ev rtEvent) bool {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		if ev.done != nil {
			close(ev.done)
		}
		return false
	}
	if ev.kind == evStop || ev.kind == evCrash {
		n.dead = true
		if ev.kind == evCrash {
			n.crash = true
			n.queue = nil // discard everything queued
		}
	}
	n.queue = append(n.queue, ev)
	n.cond.Signal()
	n.mu.Unlock()
	return true
}

func (n *rtNode) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	env := &rtEnv{n: n}
	for {
		n.mu.Lock()
		for len(n.queue) == 0 {
			n.cond.Wait()
		}
		ev := n.queue[0]
		n.queue = n.queue[1:]
		n.mu.Unlock()

		switch ev.kind {
		case evStart:
			n.node.Start(env)
		case evMsg:
			n.node.Receive(ev.from, ev.msg)
		case evTimer:
			n.timerMu.Lock()
			_, live := n.pending[ev.tid]
			delete(n.pending, ev.tid)
			n.timerMu.Unlock()
			if live {
				n.node.Timer(ev.tid, ev.data)
			}
		case evInvoke:
			ev.fn()
			close(ev.done)
		case evStop, evCrash:
			if !n.crash {
				n.node.Stop()
			}
			n.stopTimers()
			n.drainInvokes()
			n.mu.Lock()
			n.closed = true
			n.mu.Unlock()
			return
		}
	}
}

// drainInvokes unblocks any Invoke callers queued behind the stop event.
func (n *rtNode) drainInvokes() {
	n.mu.Lock()
	q := n.queue
	n.queue = nil
	n.mu.Unlock()
	for _, ev := range q {
		if ev.done != nil {
			close(ev.done)
		}
	}
}

func (n *rtNode) stopTimers() {
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	for id, t := range n.pending {
		t.Stop()
		delete(n.pending, id)
	}
}

// rtEnv implements actor.Env for one real-time node. Its methods are invoked
// only from the node's own loop (per the actor contract).
type rtEnv struct {
	n *rtNode
}

var _ actor.Env = (*rtEnv)(nil)

func (e *rtEnv) Self() ids.NodeID   { return e.n.id }
func (e *rtEnv) Now() time.Duration { return e.n.rt.Now() }
func (e *rtEnv) Rand() *rand.Rand   { return e.n.rng }

func (e *rtEnv) Send(to ids.NodeID, msg actor.Message) {
	e.n.rt.route(e.n.id, to, msg)
}

func (e *rtEnv) SetTimer(d time.Duration, data any) actor.TimerID {
	if d < 0 {
		d = 0
	}
	n := e.n
	n.timerMu.Lock()
	n.timerSeq++
	id := actor.TimerID(n.timerSeq)
	n.pending[id] = time.AfterFunc(d, func() {
		n.post(rtEvent{kind: evTimer, tid: id, data: data})
	})
	n.timerMu.Unlock()
	return id
}

func (e *rtEnv) CancelTimer(id actor.TimerID) {
	n := e.n
	n.timerMu.Lock()
	if t, ok := n.pending[id]; ok {
		t.Stop()
		delete(n.pending, id)
	}
	n.timerMu.Unlock()
}

func (e *rtEnv) Logf(format string, args ...any) {
	if e.n.rt.opts.Logf != nil {
		e.n.rt.logf("[t=%v %v] "+format,
			append([]any{e.n.rt.Now().Round(time.Millisecond), e.n.id}, args...)...)
	}
}

// LearnAddr implements actor.AddrBook by forwarding to the transport.
func (e *rtEnv) LearnAddr(id ids.NodeID, addr string) {
	if t := e.n.rt.opts.Transport; t != nil {
		t.LearnAddr(id, addr)
	}
}
