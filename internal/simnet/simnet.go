// Package simnet is a deterministic discrete-event network simulator.
//
// It substitutes for the paper's EC2 deployments: hundreds of protocol nodes
// run in one OS process on a virtual clock, with configurable per-link
// latency, per-node bandwidth serialization (so incast and parallel-transfer
// effects are visible), probabilistic loss, and partitions. A 1400-node,
// 5500-virtual-second experiment (paper Fig. 6) executes in seconds.
//
// The simulator is single-threaded: events are processed strictly in
// (time, insertion) order, so runs are reproducible from the seed. That
// (at, seq) order is the replay contract: a run replays event for event, and
// internal/core's TestSimTraceGolden pins a digest of one.
//
// The event loop: an event scheduled with zero delay is due now, after every
// event already pending, so it goes to the back of a due-now FIFO instead of
// being sifted through the heap; the next event is whichever of the FIFO's
// head and the heap's top comes first in (at, seq). The heap is a min-heap of
// small (at, seq, slot) keys over a slab of event bodies whose slots are
// reused, and a body is typed (run a function, a message arriving, a message
// delivered, a timer firing) and carries its fields instead of capturing them
// in a closure, so scheduling, sending and firing an event allocate nothing.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
)

// LatencyFn computes the one-way propagation delay for a message.
type LatencyFn func(from, to ids.NodeID, rng *rand.Rand) time.Duration

// ConstLatency returns a LatencyFn with a fixed delay.
func ConstLatency(d time.Duration) LatencyFn {
	return func(_, _ ids.NodeID, _ *rand.Rand) time.Duration { return d }
}

// UniformLatency returns a LatencyFn drawing uniformly from [lo, hi).
func UniformLatency(lo, hi time.Duration) LatencyFn {
	if hi <= lo {
		return ConstLatency(lo)
	}
	return func(_, _ ids.NodeID, rng *rand.Rand) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
}

// LANLatency models an intra-datacenter network (paper's Sync deployments):
// 0.5–2 ms one-way.
func LANLatency() LatencyFn { return UniformLatency(500*time.Microsecond, 2*time.Millisecond) }

// WANLatency models a multi-region deployment (paper's Async deployments):
// nodes are spread round-robin over nregions regions; intra-region links are
// LAN-like, cross-region links are 20–150 ms depending on region distance.
func WANLatency(nregions int) LatencyFn {
	if nregions < 1 {
		nregions = 1
	}
	lan := LANLatency()
	return func(from, to ids.NodeID, rng *rand.Rand) time.Duration {
		rf := int(uint64(from) % uint64(nregions))
		rt := int(uint64(to) % uint64(nregions))
		if rf == rt {
			return lan(from, to, rng)
		}
		dist := rf - rt
		if dist < 0 {
			dist = -dist
		}
		base := 20*time.Millisecond + time.Duration(dist)*15*time.Millisecond
		jitter := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		return base + jitter
	}
}

// Config parameterizes a simulated network.
type Config struct {
	// Seed makes the run reproducible. Two runs with equal seeds and equal
	// event schedules produce identical histories.
	Seed int64
	// Latency is the per-message propagation delay model.
	// Defaults to LANLatency().
	Latency LatencyFn
	// LossProb is the probability that any message is silently dropped.
	LossProb float64
	// BandwidthUp is each node's egress rate in bytes/second (0 = infinite).
	BandwidthUp int64
	// BandwidthDown is each node's ingress rate in bytes/second (0 = infinite).
	BandwidthDown int64
	// Logf, when non-nil, receives debug logs from nodes and the simulator.
	Logf func(format string, args ...any)
}

// Stats counts network-level activity; useful for measuring protocol
// message complexity.
type Stats struct {
	Sent      int64 // messages submitted by nodes
	Delivered int64 // messages delivered to live nodes
	Dropped   int64 // lost, partitioned, overloaded, or addressed to dead nodes
	BytesSent int64 // sum of wire sizes of sent messages
	// DroppedOverload counts messages dropped by a slow consumer's full
	// ingest buffer (SetIngestCap) — transport-level loss under overload,
	// as opposed to probabilistic loss or partitions.
	DroppedOverload int64
}

// Sub returns the difference s − before, field by field (counter snapshots
// around a measurement window).
func (s Stats) Sub(before Stats) Stats {
	out := s
	out.Sent -= before.Sent
	out.Delivered -= before.Delivered
	out.Dropped -= before.Dropped
	out.BytesSent -= before.BytesSent
	out.DroppedOverload -= before.DroppedOverload
	return out
}

// Network is a discrete-event simulated network. Not safe for concurrent
// use; drive it from one goroutine.
type Network struct {
	cfg Config
	now time.Duration
	seq uint64
	rng *rand.Rand

	// The event queue: keys of pending events with a delay, a min-heap in
	// (at, seq) order; keys of zero-delay events in arrival order from
	// due[dueHead]; and the bodies both point at, by slot, with the slots
	// free for reuse listed in free.
	heap    []key
	due     []key
	dueHead int
	bodies  []body
	free    []int32

	nodes     map[ids.NodeID]*simNode
	partition map[ids.NodeID]int // partition index; absent = 0
	stats     Stats

	timerSeq uint64
}

type simNode struct {
	id      ids.NodeID
	node    actor.Node
	env     *nodeEnv
	alive   bool
	egress  time.Duration // time the NIC egress queue drains
	ingress time.Duration // time the NIC ingress queue drains
	// Slow-consumer model (SetIngestCap): the node processes inRate bytes
	// per second through a bounded inQueue-byte buffer; arrivals that would
	// overflow the buffer are dropped (DroppedOverload). 0 = uncapped.
	inRate  int64
	inQueue int64
}

// key orders one pending event: by time, then by scheduling order.
type key struct {
	at   time.Duration
	seq  uint64
	slot int32 // index of the event's body in Network.bodies
}

func (k key) before(o key) bool {
	return k.at < o.at || k.at == o.at && k.seq < o.seq
}

type eventKind uint8

const (
	evFunc    eventKind = iota // call fn
	evArrive                   // msg reaches to's NIC: ingress serialization
	evDeliver                  // msg is handed to to
	evTimer                    // env's timer id fires with data
)

// body is what an event does when it fires. A message event carries its
// sender's env, receiver, message and wire size; a timer event its owner's
// env, timer ID and data (in msg).
type body struct {
	fn   func()
	env  *nodeEnv
	msg  any
	to   ids.NodeID
	id   actor.TimerID
	size int32
	kind eventKind
}

// New creates a simulated network.
func New(cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = LANLatency()
	}
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nodes:     make(map[ids.NodeID]*simNode),
		partition: make(map[ids.NodeID]int),
	}
}

// SetIngestCap models a slow consumer: node id processes messages at
// bytesPerSec through a bounded ingest buffer of queueBytes; messages
// arriving when the buffer is full are dropped (transport-level overload
// loss, counted in DroppedOverload). Zero values remove
// the cap. Applies from the next arrival; no-op for unknown nodes.
func (n *Network) SetIngestCap(id ids.NodeID, bytesPerSec, queueBytes int64) {
	if sn, ok := n.nodes[id]; ok {
		sn.inRate, sn.inQueue = bytesPerSec, queueBytes
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Add registers a node and schedules its Start at the current time.
// Adding an ID that is already live panics: it indicates a harness bug.
func (n *Network) Add(id ids.NodeID, node actor.Node) {
	if sn, ok := n.nodes[id]; ok && sn.alive {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	sn := &simNode{id: id, node: node, alive: true}
	mix := uint64(n.cfg.Seed) ^ uint64(id)*0x9e3779b97f4a7c15
	sn.env = &nodeEnv{net: n, self: sn, rng: rand.New(rand.NewSource(int64(mix)))}
	n.nodes[id] = sn
	n.schedule(0, body{kind: evFunc, fn: func() {
		if sn.alive {
			node.Start(sn.env)
		}
	}})
}

// Remove gracefully stops a node: Stop is invoked and future deliveries to
// it are dropped.
func (n *Network) Remove(id ids.NodeID) {
	sn, ok := n.nodes[id]
	if !ok || !sn.alive {
		return
	}
	sn.alive = false
	sn.node.Stop()
	delete(n.nodes, id)
}

// Crash fail-stops a node without notice: no Stop call, messages dropped.
func (n *Network) Crash(id ids.NodeID) {
	sn, ok := n.nodes[id]
	if !ok || !sn.alive {
		return
	}
	sn.alive = false
	delete(n.nodes, id)
}

// Alive reports whether the node exists and has not crashed or been removed.
func (n *Network) Alive(id ids.NodeID) bool {
	sn, ok := n.nodes[id]
	return ok && sn.alive
}

// NumAlive returns the number of live nodes.
func (n *Network) NumAlive() int { return len(n.nodes) }

// SetPartitions splits nodes into isolated groups. Nodes in different groups
// cannot exchange messages. Nodes not mentioned are in group 0.
func (n *Network) SetPartitions(groups ...[]ids.NodeID) {
	n.partition = make(map[ids.NodeID]int)
	for i, g := range groups {
		for _, id := range g {
			n.partition[id] = i + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() { n.partition = make(map[ids.NodeID]int) }

// Schedule runs fn at virtual time at (absolute). Scheduling in the past
// runs the function at the current time.
func (n *Network) Schedule(at time.Duration, fn func()) {
	d := at - n.now
	if d < 0 {
		d = 0
	}
	n.schedule(d, body{kind: evFunc, fn: fn})
}

// schedule queues b to fire after the given delay (not negative): in a free
// slot of the slab, keyed on the FIFO if it is due now, else on the heap.
func (n *Network) schedule(after time.Duration, b body) {
	n.seq++
	var slot int32
	if k := len(n.free); k > 0 {
		slot = n.free[k-1]
		n.free = n.free[:k-1]
		n.bodies[slot] = b
	} else {
		slot = int32(len(n.bodies))
		n.bodies = append(n.bodies, b)
	}
	k := key{at: n.now + after, seq: n.seq, slot: slot}
	if after == 0 {
		n.due = append(n.due, k)
		return
	}
	// Sift up from the new leaf.
	h := append(n.heap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	n.heap = h
}

// next returns the key of the event due first, and whether it heads the
// due-now FIFO rather than the heap.
func (n *Network) next() (k key, fromDue, ok bool) {
	if n.dueHead < len(n.due) {
		k = n.due[n.dueHead]
		if len(n.heap) == 0 || k.before(n.heap[0]) {
			return k, true, true
		}
	}
	if len(n.heap) == 0 {
		return key{}, false, false
	}
	return n.heap[0], false, true
}

// pop removes the event next returned.
func (n *Network) pop(fromDue bool) {
	if fromDue {
		n.dueHead++
		if n.dueHead == len(n.due) {
			n.due, n.dueHead = n.due[:0], 0
		}
		return
	}
	// Sift the last leaf down from the root.
	h := n.heap
	last := len(h) - 1
	k := h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if last > 0 {
		h[i] = k
	}
	n.heap = h
}

// Step processes the next event, returning false when the queue is empty.
func (n *Network) Step() bool {
	k, fromDue, ok := n.next()
	if ok {
		n.process(k, fromDue)
	}
	return ok
}

// Run processes events until virtual time passes until. Events scheduled at
// exactly until are processed. Afterwards Now() == until.
func (n *Network) Run(until time.Duration) {
	for {
		k, fromDue, ok := n.next()
		if !ok || k.at > until {
			break
		}
		n.process(k, fromDue)
	}
	if n.now < until {
		n.now = until
	}
}

// process pops the event next returned and runs it.
func (n *Network) process(k key, fromDue bool) {
	n.pop(fromDue)
	if k.at > n.now {
		n.now = k.at
	}
	// Free the slot before running the body: what it schedules may reuse it.
	b := n.bodies[k.slot]
	n.bodies[k.slot] = body{}
	n.free = append(n.free, k.slot)
	switch b.kind {
	case evFunc:
		b.fn()
	case evArrive:
		n.arrive(b)
	case evDeliver:
		n.deliver(b)
	case evTimer:
		b.env.fire(b.id, b.msg)
	}
}

func (n *Network) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Network) send(from *nodeEnv, to ids.NodeID, msg actor.Message) {
	n.stats.Sent++
	size := actor.SizeOf(msg)
	n.stats.BytesSent += int64(size)

	src := from.self
	if n.partition[src.id] != n.partition[to] ||
		n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		n.stats.Dropped++
		return
	}

	// Egress serialization: the sender's NIC transmits messages back to back.
	depart := n.now
	if n.cfg.BandwidthUp > 0 {
		if src.egress < n.now {
			src.egress = n.now
		}
		src.egress += byteTime(size, n.cfg.BandwidthUp)
		depart = src.egress
	}
	at := depart + n.cfg.Latency(src.id, to, n.rng)

	// Stage 1 (arrive): arrival at the receiver NIC; stage 2 (deliver):
	// after ingress serialization.
	n.schedule(at-n.now, body{kind: evArrive, env: from, to: to, msg: msg, size: int32(size)})
}

// arrive is a message's first stage: it reaches the receiver's NIC and
// queues for ingress serialization.
func (n *Network) arrive(b body) {
	dst, ok := n.nodes[b.to]
	if !ok || !dst.alive {
		n.stats.Dropped++
		return
	}
	size := int(b.size)
	deliverAt := n.now
	switch {
	case dst.inRate > 0:
		// Slow consumer (SetIngestCap): bounded ingest buffer draining
		// at inRate; overflow is transport-level overload loss.
		if dst.ingress < n.now {
			dst.ingress = n.now
		}
		backlog := int64(dst.ingress-n.now) * dst.inRate / int64(time.Second)
		if dst.inQueue > 0 && backlog+int64(size) > dst.inQueue {
			n.stats.Dropped++
			n.stats.DroppedOverload++
			return
		}
		dst.ingress += byteTime(size, dst.inRate)
		deliverAt = dst.ingress
	case n.cfg.BandwidthDown > 0:
		if dst.ingress < n.now {
			dst.ingress = n.now
		}
		dst.ingress += byteTime(size, n.cfg.BandwidthDown)
		deliverAt = dst.ingress
	}
	b.kind = evDeliver
	n.schedule(deliverAt-n.now, b)
}

// deliver is a message's second stage: the receiver, if still live, gets it.
func (n *Network) deliver(b body) {
	dst, ok := n.nodes[b.to]
	if !ok || !dst.alive {
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	dst.node.Receive(b.env.self.id, b.msg)
}

func byteTime(size int, bytesPerSec int64) time.Duration {
	return time.Duration(int64(size) * int64(time.Second) / bytesPerSec)
}

// nodeEnv implements actor.Env for one simulated node.
type nodeEnv struct {
	net     *Network
	self    *simNode
	rng     *rand.Rand
	pending map[actor.TimerID]bool
}

var _ actor.Env = (*nodeEnv)(nil)

func (e *nodeEnv) Self() ids.NodeID   { return e.self.id }
func (e *nodeEnv) Now() time.Duration { return e.net.now }
func (e *nodeEnv) Rand() *rand.Rand   { return e.rng }

func (e *nodeEnv) Send(to ids.NodeID, msg actor.Message) {
	if !e.self.alive {
		return
	}
	e.net.send(e, to, msg)
}

func (e *nodeEnv) SetTimer(d time.Duration, data any) actor.TimerID {
	e.net.timerSeq++
	id := actor.TimerID(e.net.timerSeq)
	if d < 0 {
		d = 0
	}
	if e.pending == nil {
		e.pending = make(map[actor.TimerID]bool)
	}
	e.pending[id] = true
	e.net.schedule(d, body{kind: evTimer, env: e, id: id, msg: data})
	return id
}

func (e *nodeEnv) CancelTimer(id actor.TimerID) {
	delete(e.pending, id)
}

// fire runs timer id unless it was cancelled or its node is gone.
func (e *nodeEnv) fire(id actor.TimerID, data any) {
	if !e.pending[id] {
		return // cancelled
	}
	delete(e.pending, id)
	if e.self.alive {
		e.self.node.Timer(id, data)
	}
}

func (e *nodeEnv) Logf(format string, args ...any) {
	if e.net.cfg.Logf != nil {
		e.net.cfg.Logf("[t=%v %v] "+format, append([]any{e.net.now, e.self.id}, args...)...)
	}
}
