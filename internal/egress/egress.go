// Package egress is the engine's way out. It owns the node's transport
// handle: the engine hands its actor.Env to a Port at Start and keeps none,
// so every message a node sends leaves through this package (port.go). Below
// the Port sits the Scheduler, one per-destination queue that every sender in
// the engine feeds — gossip payloads, random-walk forwards, neighbor and
// composition updates during churn, and application raw-message floods: any
// logical message bound for a destination within the destination's flush
// window is coalesced into one batch carrier frame (internal/group batching),
// cutting per-link message counts and framing bytes by roughly the number of
// concurrent sends.
//
// The Scheduler itself queues opaque group.BatchItem values per destination
// and hands batches back through Config.Flush; the Port's Flush frames them
// (plain group message, batch carrier, node-addressed raw carrier). When
// FlushAll must run is the engine's business: it flushes before every
// replicated-state replacement so batches leave stamped with their
// enqueue-time composition.
//
// # Adaptive flush window
//
// Instead of a fixed flush interval, each destination's window is derived
// from its observed arrival rate (fast attack, slow decay, on the
// inter-arrival gap):
//
//   - idle (arrivals sparser than MaxWindow/4): the window is zero and items
//     are transmitted immediately — a single broadcast on a quiet system
//     pays no batching latency at all;
//   - bursts: the window widens with the arrival rate, up to MaxWindow —
//     gap ≤ MaxWindow/16 earns the full window, so batches fill;
//   - in between, the window is MaxWindow²/(16·gap): wide enough to collect
//     a few more arrivals, never wider than the configured cap.
//
// Queues opened with deferred=true skip the window machinery entirely: they
// are the synchronous engine's round, and everything in them leaves at the
// next FlushDeferred (its round tick — one overlay hop per round, so timers
// would buy nothing). A size cap, a source change or FlushAll still closes
// such a batch early, stamped with its enqueue-time source and destination,
// but the closed batch is held and leaves at that FlushDeferred too, ahead of
// the round's open queues and in the order it was closed. So does a single
// item that must not ride a carrier (EnqueueAlone with deferred set).
//
// # Flow control
//
// Node-addressed queues (application raw traffic) are flow-controlled:
//
//   - the drain is paced: one carrier of at most MaxBatch items (MaxBytes
//     bytes) leaves per adaptive window, so a flood cannot dump an unbounded
//     burst onto the transport — excess items wait in the queue;
//   - the queue is bounded (Limit items, LimitBytes payload bytes): overflow
//     evicts the oldest queued item of a strictly lower-priority Class, or,
//     when no such victim exists, rejects the new item with ErrOverflow;
//   - items carry an optional expiry: stale items are dropped at flush time
//     (DroppedExpired), never transmitted;
//   - queue depth drives a hysteresis-based pressure level per destination
//     (Low/High/Critical, distinct enter/exit thresholds so the signal does
//     not flap); Level reads it in O(1), and Snapshot exposes it with
//     per-destination depth and drop counters.
//
// Group-addressed queues are not bounded, not paced and never expire: they
// carry protocol traffic (agreement-backed group messages) whose loss the
// engine cannot tolerate, so EnqueueGroup takes no class and no expiry. Which
// of the two a queue is follows from its destination alone — there is no
// switch. FlushAll drains everything, bounds and pacing included —
// correctness before flow control.
//
// The scheduler is not goroutine-safe: like the rest of the engine it runs
// inside one actor's event loop.
package egress

import (
	"errors"
	"slices"
	"sort"
	"time"

	"atum/internal/group"
	"atum/internal/ids"
)

// Class is an item's priority class: lower values are more important.
// Overflow on a bounded node queue evicts strictly lower-priority (higher
// Class) items first; equal-priority traffic is rejected at the tail.
type Class uint8

// Priority classes.
const (
	// ClassControl is protocol-critical traffic (engine kinds, application
	// request/reply handshakes); never evicted in favor of data.
	ClassControl Class = iota
	// ClassData is ordinary application payload traffic.
	ClassData
	// ClassBulk is best-effort bulk traffic (streaming floods, speculative
	// forwards): first to be shed under pressure.
	ClassBulk
)

// Level is a destination's flow-control pressure level, derived from its
// queue depth with hysteresis (see PressureThresholds).
type Level int

// Pressure levels.
const (
	LevelLow Level = iota
	LevelHigh
	LevelCritical
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelHigh:
		return "high"
	case LevelCritical:
		return "critical"
	default:
		return "low"
	}
}

// PressureThresholds returns the hysteresis thresholds for a queue-depth
// limit: High is entered at depth ≥ enterHigh (limit/2) and left at depth <
// exitHigh (limit/4); Critical is entered at depth ≥ enterCrit (7·limit/8)
// and left at depth < exitCrit (5·limit/8). Distinct enter/exit bounds keep
// the level from flapping around a threshold. Every threshold is floored at
// 1 (and the Critical pair at the High pair) so degenerate limits still
// behave: an empty queue is always Low, and levels raised under a tiny
// limit can always be exited.
func PressureThresholds(limit int) (enterHigh, exitHigh, enterCrit, exitCrit int) {
	enterHigh = max(limit/2, 1)
	exitHigh = max(limit/4, 1)
	enterCrit = max(limit-limit/8, enterHigh)
	exitCrit = max(limit-3*(limit/8), exitHigh)
	return
}

// nextLevel applies the hysteresis transition function: a level is entered
// at its enter threshold and kept down to its exit threshold.
func nextLevel(cur Level, depth, limit int) Level {
	enterHigh, exitHigh, enterCrit, exitCrit := PressureThresholds(limit)
	switch {
	case depth >= enterCrit || cur == LevelCritical && depth >= exitCrit:
		return LevelCritical
	case depth >= enterHigh || cur != LevelLow && depth >= exitHigh:
		return LevelHigh
	}
	return LevelLow
}

// ErrOverflow reports that a bounded destination queue was full and held no
// lower-priority victim to evict: the item was dropped at the sender.
var ErrOverflow = errors.New("egress: destination queue full")

// Config wires a Scheduler to its owner.
type Config struct {
	// MaxBatch caps the items coalesced per carrier; on group queues the
	// cap'th item forces a flush (so a cap of 1 never holds an item).
	MaxBatch int
	// MaxBytes caps a carrier's pending bytes, each item charged
	// len(Payload)+group.BatchWireOverhead: an upper bound of its share of
	// the frame for every item the engine enqueues, gossip's payload-less
	// votes included (group.BatchWireOverhead names the one form it does not
	// bound). Exceeding it forces a flush on group queues.
	MaxBytes int
	// MaxWindow caps the adaptive flush window.
	MaxWindow time.Duration
	// Limit bounds a node-addressed destination's queued items and scales
	// its pressure thresholds. An owner that sends to nodes sets it > 0: a
	// queue bounded at zero admits nothing.
	Limit int
	// LimitBytes bounds a node-addressed destination's queued payload bytes
	// (incl. per-item framing). <= 0: no byte bound.
	LimitBytes int
	// Now returns the owner's clock.
	Now func() time.Duration
	// Arm asks the owner to call OnTimer after the given delay. The
	// scheduler tracks its earliest pending deadline and re-arms as needed;
	// spurious OnTimer calls are harmless.
	Arm func(delay time.Duration)
	// Flush transmits one destination's batch. node is nonzero for
	// node-addressed destinations (dst is then the zero Composition); src is
	// the source composition captured when the batch was opened.
	//
	// Ownership: items is scheduler-owned scratch, valid only for the
	// duration of the call — the scheduler recycles the backing array for
	// the destination's next batch. Implementations that keep items past the
	// call (tests, recorders) must copy the slice; the item *payloads* are
	// caller-owned as usual and may be retained freely. It must not re-enter
	// the scheduler.
	Flush func(src, dst group.Composition, node ids.NodeID, items []group.BatchItem)
	// Withdraw, when set, is asked about each item of a group batch as the
	// batch closes, before its carriers are counted: an item it reports is
	// dropped, and a batch left empty sends nothing (the engine's gossip link
	// rule, read again as the batch leaves). It must not re-enter the
	// scheduler.
	Withdraw func(dst group.Composition, it group.BatchItem) bool
}

// Stats is a snapshot of the scheduler (Snapshot).
type Stats struct {
	// Dests lists every tracked node-addressed destination, sorted by node
	// ID. Group-addressed (protocol) queues are unbounded and not listed.
	Dests []DestStats
	// Aggregate counters across all destinations, group queues included.
	Enqueued        uint64 // items accepted
	Immediate       uint64 // items transmitted without queueing (idle fast path)
	Flushes         uint64 // queued batches transmitted
	Items           uint64 // items transmitted through queued batches
	DroppedOverflow uint64 // items dropped because a bounded queue was full
	DroppedExpired  uint64 // items dropped at flush because their expiry passed
}

// DestStats is one node-addressed destination's flow-control snapshot.
type DestStats struct {
	Node            ids.NodeID
	Depth           int // items currently queued
	Bytes           int // queued payload bytes (incl. framing)
	Level           Level
	Flushes         uint64
	DroppedOverflow uint64
	DroppedExpired  uint64
}

// destKey identifies one destination: a vgroup (composition key) or a node.
type destKey struct {
	grp  group.Key
	node ids.NodeID
}

// itemMeta is the flow-control metadata of one queued item (parallel to
// pending.items; kept out of group.BatchItem so classes and expiries never
// leak into wire frames).
type itemMeta struct {
	class   Class
	expires time.Duration // 0: never
}

// pending is one destination's open batch.
type pending struct {
	src      group.Composition
	dst      group.Composition
	node     ids.NodeID
	items    []group.BatchItem
	meta     []itemMeta
	bytes    int
	deadline time.Duration // 0: deferred to the next FlushDeferred
}

// arrival is one destination's rate estimate and flow-control state; it
// survives across flushes.
type arrival struct {
	seen   bool
	lastAt time.Duration
	gap    time.Duration // smoothed inter-arrival gap (fast attack, slow decay)
	// nextAt is the earliest next paced flush (node destinations): a full
	// carrier leaves at most once per adaptive window.
	nextAt time.Duration
	level  Level
	// per-destination counters surfaced through Snapshot.
	flushes  uint64
	dropOver uint64
	dropExp  uint64
}

// maxArrivalEntries bounds the rate-estimate map; overflow evicts stale
// destinations (sparser than the idle threshold, which re-estimates from
// scratch anyway).
const maxArrivalEntries = 1024

// Scheduler is the per-destination egress queue set. Create with New.
type Scheduler struct {
	cfg     Config
	pend    map[destKey]*pending
	order   []destKey // first-enqueue order
	arr     map[destKey]*arrival
	armedAt time.Duration // earliest armed timer deadline; 0 = none
	stats   Stats
	// free recycles pending structs (and, through them, their item slices):
	// carrier construction reuses per-queue scratch instead of allocating a
	// fresh batch per flush. Bounded; see maxFreePending.
	free []*pending
	// single is the one-element scratch slice the immediate fast path hands
	// to Flush (the idle case is per-item hot; Flush does not retain items).
	single [1]group.BatchItem
	// held lists, in the order they were closed, the batches that wait for
	// the next FlushDeferred: deferred queues closed between ticks, and
	// deferred EnqueueAlone items.
	held []*pending
}

// maxFreePending bounds the recycled-batch freelist: enough for every
// neighbor destination of a busy node, without letting a churn spike pin
// arbitrary memory.
const maxFreePending = 64

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:  cfg,
		pend: make(map[destKey]*pending),
		arr:  make(map[destKey]*arrival),
	}
}

// EnqueueGroup queues one logical message for every member of dst.
// deferred batches wait for the next FlushDeferred instead of an
// adaptive window (the synchronous engine's round-quantized sends).
func (s *Scheduler) EnqueueGroup(src, dst group.Composition, it group.BatchItem, deferred bool) {
	s.enqueue(destKey{grp: dst.Key()}, src, dst, 0, it, deferred, itemMeta{})
}

// EnqueueNodeWith queues one raw item for a single node. It returns
// ErrOverflow when the destination queue is full and no lower-priority victim
// could be evicted — the item was not queued.
func (s *Scheduler) EnqueueNodeWith(src group.Composition, to ids.NodeID, it group.BatchItem, class Class, expires time.Duration) error {
	return s.enqueue(destKey{node: to}, src, group.Composition{}, to, it, false, itemMeta{class: class, expires: expires})
}

// EnqueueAlone sends one item to every member of dst as a batch of its own: a
// kind a carrier must not deliver. It is flushed at once, or, deferred, held
// for the next FlushDeferred in its place among the closed batches. It opens
// no queue and is not counted in Stats.
func (s *Scheduler) EnqueueAlone(src, dst group.Composition, it group.BatchItem, deferred bool) {
	q := s.newPending(src, dst, 0)
	q.items, q.meta = append(q.items, it), append(q.meta, itemMeta{})
	if deferred {
		s.held = append(s.held, q)
	} else {
		s.send(q)
	}
}

func (s *Scheduler) enqueue(k destKey, src, dst group.Composition, node ids.NodeID, it group.BatchItem, deferred bool, meta itemMeta) error {
	s.stats.Enqueued++
	now := s.now()
	a, window := s.observe(k, now)
	q := s.pend[k]
	if q != nil && (q.src.GroupID != src.GroupID || q.src.Epoch != src.Epoch) {
		// The source composition changed under the open batch (epoch bump,
		// group move): it must leave stamped with its enqueue-time source.
		s.close(k, q)
		q = nil
	}
	if q == nil {
		paceHold := node != 0 && a.nextAt > now
		if !deferred && window <= 0 && !paceHold {
			// The destination is idle: transmit now so low-rate traffic pays
			// no window latency. The scratch slice is reused per call — Flush
			// must not retain it (see Config.Flush).
			s.stats.Immediate++
			s.single[0] = it
			s.cfg.Flush(src, dst, node, s.single[:])
			s.single[0] = group.BatchItem{}
			return nil
		}
		q = s.newPending(src, dst, node)
		if !deferred {
			q.deadline = now + window
			if paceHold {
				q.deadline = max(q.deadline, a.nextAt)
			}
			s.arm(q.deadline)
		}
		s.pend[k] = q
		s.order = append(s.order, k)
	}
	sz := len(it.Payload) + group.BatchWireOverhead
	if node != 0 {
		// Dead items must not hold slots against live ones: purge expired
		// entries before deciding to evict or reject (they would be
		// discarded at the next flush anyway).
		if s.overLimit(q, sz) {
			s.dropExpired(a, q, now)
		}
		// An item that cannot fit even an empty queue is rejected outright —
		// evicting the whole queue for it would shed admitted traffic for
		// nothing.
		reject := s.cfg.LimitBytes > 0 && sz > s.cfg.LimitBytes
		// Otherwise evict lower-priority victims until BOTH the item and the
		// byte bound hold (one victim may free far fewer bytes than the
		// newcomer needs).
		for !reject && s.overLimit(q, sz) {
			reject = !s.evictFor(a, q, meta.class) // no lower-priority victim: the new item is the drop
		}
		if reject {
			s.stats.DroppedOverflow++
			a.dropOver++
			s.updatePressure(k, a)
			return ErrOverflow
		}
	}
	q.items = append(q.items, it)
	q.meta = append(q.meta, meta)
	q.bytes += sz
	if len(q.items) >= s.cfg.MaxBatch || q.bytes >= s.cfg.MaxBytes {
		if node == 0 {
			s.close(k, q)
		} else if a.nextAt <= now {
			// Paced drain: a full carrier leaves at most once per window;
			// excess items wait (bounded by Limit above).
			s.drain(k, q, true)
		}
	}
	s.updatePressure(k, a)
	return nil
}

// overLimit reports whether admitting extra bytes would exceed the queue
// bounds.
func (s *Scheduler) overLimit(q *pending, extra int) bool {
	if len(q.items) >= s.cfg.Limit {
		return true
	}
	return s.cfg.LimitBytes > 0 && q.bytes+extra > s.cfg.LimitBytes
}

// evictFor drops the oldest queued item whose class is strictly lower
// priority (greater value) than class, making room for a more important
// item. Returns false when no such victim exists.
func (s *Scheduler) evictFor(a *arrival, q *pending, class Class) bool {
	victim, worst := -1, class
	for i, m := range q.meta {
		if m.class > worst {
			victim, worst = i, m.class
		}
	}
	if victim < 0 {
		return false
	}
	q.bytes -= len(q.items[victim].Payload) + group.BatchWireOverhead
	q.items = slices.Delete(q.items, victim, victim+1)
	q.meta = slices.Delete(q.meta, victim, victim+1)
	s.stats.DroppedOverflow++
	a.dropOver++
	return true
}

// dropExpired removes items whose expiry has passed (in place, order
// preserved).
func (s *Scheduler) dropExpired(a *arrival, q *pending, now time.Duration) {
	q.removeIf(func(i int) bool {
		if e := q.meta[i].expires; e == 0 || e > now {
			return false
		}
		s.stats.DroppedExpired++
		a.dropExp++
		return true
	})
}

// removeIf deletes the items drop reports, in place and in order, and takes
// their charge off the batch's bytes.
func (q *pending) removeIf(drop func(i int) bool) {
	kept := 0
	for i := range q.items {
		if drop(i) {
			q.bytes -= len(q.items[i].Payload) + group.BatchWireOverhead
			continue
		}
		if kept != i {
			q.items[kept], q.meta[kept] = q.items[i], q.meta[i]
		}
		kept++
	}
	q.items, q.meta = slices.Delete(q.items, kept, len(q.items)), q.meta[:kept]
}

// observe updates the destination's arrival estimate and returns it with the
// flush window a batch opened now should use (see the package comment).
func (s *Scheduler) observe(k destKey, now time.Duration) (*arrival, time.Duration) {
	a := s.arr[k]
	if a == nil {
		if len(s.arr) >= maxArrivalEntries {
			s.pruneArrivals(now)
		}
		a = &arrival{}
		s.arr[k] = a
	}
	gap := now - a.lastAt
	if gap <= 0 {
		gap = time.Nanosecond
	}
	first := !a.seen
	a.seen = true
	a.lastAt = now
	if first {
		return a, 0 // no rate estimate yet: behave as idle
	}
	if gap < a.gap || a.gap == 0 {
		a.gap = gap // fast attack: react to the first burst arrival
	} else {
		a.gap = (3*a.gap + gap) / 4 // slow decay back toward idle
	}
	return a, s.windowFromGap(a.gap)
}

// windowFromGap derives the flush window from a smoothed inter-arrival gap.
func (s *Scheduler) windowFromGap(gap time.Duration) time.Duration {
	maxW := s.cfg.MaxWindow
	if maxW <= 0 || gap > maxW/4 {
		return 0 // idle or near-idle: not worth a window for <2 extra items
	}
	w := time.Duration(float64(maxW) * float64(maxW) / (16 * float64(gap)))
	if w > maxW {
		w = maxW
	}
	return w
}

// pruneArrivals evicts rate entries idle past the point of usefulness.
func (s *Scheduler) pruneArrivals(now time.Duration) {
	stale := 16 * s.cfg.MaxWindow
	if stale <= 0 {
		stale = time.Second
	}
	for k, a := range s.arr {
		if _, open := s.pend[k]; !open && now-a.lastAt > stale {
			delete(s.arr, k)
		}
	}
	if len(s.arr) >= maxArrivalEntries {
		// Every entry is hot (or hostile): reset rather than grow unbounded.
		for k := range s.arr {
			if _, open := s.pend[k]; !open {
				delete(s.arr, k)
			}
		}
	}
}

// FlushAll closes every open batch, in first-enqueue order, backlogs
// included — flow-control pacing does not apply: deferred batches are held
// for the next FlushDeferred, the rest transmitted. The engine calls it
// before every replicated-state replacement.
func (s *Scheduler) FlushAll() {
	for len(s.order) > 0 {
		k := s.order[0]
		s.close(k, s.pend[k])
	}
}

// FlushDeferred transmits the round: it closes every open deferred batch,
// leaving windowed and paced queues to their timers, then sends the held
// batches in the order they were closed. The engine calls it at every round
// tick.
func (s *Scheduler) FlushDeferred() {
	for i := 0; i < len(s.order); {
		if k := s.order[i]; s.pend[k].deadline == 0 {
			s.close(k, s.pend[k]) // removes order[i]; re-examine the same index
			continue
		}
		i++
	}
	for _, q := range s.held {
		s.send(q)
	}
	clear(s.held)
	s.held = s.held[:0]
}

// OnTimer transmits every batch whose window has expired — all of a group
// queue, one carrier of a node queue — and re-arms for the earliest deadline
// left (deferred batches wait for FlushDeferred). The owner routes
// its flush-timer callback here.
func (s *Scheduler) OnTimer() {
	s.armedAt = 0
	now := s.now()
	var next time.Duration
	for i := 0; i < len(s.order); {
		k := s.order[i]
		q := s.pend[k]
		if q.deadline > 0 && q.deadline <= now && !s.drain(k, q, k.node != 0) {
			continue // removed order[i]; re-examine the same index
		}
		if q.deadline > 0 && (next == 0 || q.deadline < next) {
			next = q.deadline
		}
		i++
	}
	if next > 0 {
		s.arm(next)
	}
}

// drain transmits one destination's queue. A paced drain — a node queue
// whose window expired or whose carrier filled — sends one carrier (MaxBatch
// items / MaxBytes bytes), stamps the destination's next allowed flush one
// adaptive window ahead and keeps the remainder queued until then; it reports
// whether the queue is still open. Any other drain closes the queue.
func (s *Scheduler) drain(k destKey, q *pending, paced bool) bool {
	now, a := s.now(), s.arr[k]
	s.dropExpired(a, q, now)
	if paced && len(q.items) > 0 {
		n := s.carrierPrefix(q.items)
		s.count(a, n)
		s.cfg.Flush(q.src, q.dst, q.node, q.items[:n])
		for _, it := range q.items[:n] {
			q.bytes -= len(it.Payload) + group.BatchWireOverhead
		}
		q.items, q.meta = slices.Delete(q.items, 0, n), slices.Delete(q.meta, 0, n)
		a.nextAt = now + s.windowFromGap(a.gap)
		if len(q.items) > 0 {
			q.deadline = a.nextAt
			s.arm(q.deadline)
			s.updatePressure(k, a)
			return true
		}
	}
	s.close(k, q)
	return false
}

// close ends one destination's open batch: it drops the expired items and, on
// a group batch, those the owner withdraws (Config.Withdraw), counts the
// carriers the rest make up, and sends them — or, deferred, holds them for the
// next FlushDeferred. A batch left empty sends nothing.
func (s *Scheduler) close(k destKey, q *pending) {
	a := s.arr[k]
	s.dropExpired(a, q, s.now())
	if withdraw := s.cfg.Withdraw; withdraw != nil && q.node == 0 {
		q.removeIf(func(i int) bool { return withdraw(q.dst, q.items[i]) })
	}
	for i := 0; i < len(q.items); {
		n := s.carrierPrefix(q.items[i:])
		s.count(a, n)
		i += n
	}
	delete(s.pend, k)
	i := slices.Index(s.order, k)
	s.order = slices.Delete(s.order, i, i+1)
	if q.deadline == 0 {
		s.held = append(s.held, q)
	} else {
		s.send(q)
	}
	s.updatePressure(k, a)
}

// count counts one carrier of n items as its batch closes.
func (s *Scheduler) count(a *arrival, n int) {
	s.stats.Flushes++
	s.stats.Items += uint64(n)
	a.flushes++
}

// send transmits a closed batch in carrier-sized chunks and recycles it.
func (s *Scheduler) send(q *pending) {
	for len(q.items) > 0 {
		n := s.carrierPrefix(q.items)
		s.cfg.Flush(q.src, q.dst, q.node, q.items[:n])
		q.items, q.meta = slices.Delete(q.items, 0, n), slices.Delete(q.meta, 0, n)
	}
	s.recycle(q)
}

// carrierPrefix returns how many leading items form one carrier under the
// MaxBatch and MaxBytes caps (always at least one; like the enqueue-time
// trigger, MaxBytes is crossed by the item that exceeds it, not anticipated).
func (s *Scheduler) carrierPrefix(items []group.BatchItem) int {
	n, bytes := 0, 0
	for n < len(items) {
		if n > 0 && n >= s.cfg.MaxBatch {
			break
		}
		bytes += len(items[n].Payload) + group.BatchWireOverhead
		n++
		if s.cfg.MaxBytes > 0 && bytes >= s.cfg.MaxBytes {
			break
		}
	}
	return n
}

// updatePressure recomputes a node destination's pressure level. It is the
// only writer of a level, and drain ends with it at depth 0, so a destination
// without an open queue is Low.
func (s *Scheduler) updatePressure(k destKey, a *arrival) {
	if k.node == 0 {
		return
	}
	depth := 0
	if q := s.pend[k]; q != nil {
		depth = len(q.items)
	}
	a.level = nextLevel(a.level, depth, s.cfg.Limit)
}

// Level returns the pressure level of the node-addressed destination node:
// Low when the scheduler holds nothing for it.
func (s *Scheduler) Level(node ids.NodeID) Level {
	if a := s.arr[destKey{node: node}]; a != nil {
		return a.level
	}
	return LevelLow
}

// newPending opens a destination batch, reusing a recycled struct (and its
// item slice's backing array) when one is free.
func (s *Scheduler) newPending(src, dst group.Composition, node ids.NodeID) *pending {
	if n := len(s.free); n > 0 {
		q := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		q.src, q.dst, q.node, q.bytes, q.deadline = src, dst, node, 0, 0
		return q
	}
	return &pending{src: src, dst: dst, node: node}
}

// recycle returns a sent batch to the freelist. send left its item array
// empty and zeroed, so it pins no payload buffers between batches.
func (s *Scheduler) recycle(q *pending) {
	if len(s.free) < maxFreePending {
		q.src, q.dst = group.Composition{}, group.Composition{}
		s.free = append(s.free, q)
	}
}

// arm requests a timer for the given deadline unless an earlier one is
// already armed.
func (s *Scheduler) arm(deadline time.Duration) {
	if s.cfg.Arm == nil {
		return
	}
	if s.armedAt != 0 && s.armedAt <= deadline {
		return
	}
	s.armedAt = deadline
	d := deadline - s.now()
	if d < 0 {
		d = 0
	}
	s.cfg.Arm(d)
}

func (s *Scheduler) now() time.Duration {
	if s.cfg.Now == nil {
		return 0
	}
	return s.cfg.Now()
}

// Pending reports the open destination batches and the items they hold.
func (s *Scheduler) Pending() (dests, items int) {
	for _, q := range s.pend {
		items += len(q.items)
	}
	return len(s.pend), items
}

// Snapshot returns the aggregate counters plus the flow-control state of
// every tracked node-addressed destination. Dests is freshly allocated;
// callers own it.
func (s *Scheduler) Snapshot() Stats {
	out := s.stats
	for k, a := range s.arr {
		if k.node == 0 {
			continue
		}
		d := DestStats{
			Node:            k.node,
			Level:           a.level,
			Flushes:         a.flushes,
			DroppedOverflow: a.dropOver,
			DroppedExpired:  a.dropExp,
		}
		if q := s.pend[k]; q != nil {
			d.Depth, d.Bytes = len(q.items), q.bytes
		}
		out.Dests = append(out.Dests, d)
	}
	sort.Slice(out.Dests, func(i, j int) bool { return out.Dests[i].Node < out.Dests[j].Node })
	return out
}
