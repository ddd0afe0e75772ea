package egress

import (
	"sort"
	"time"

	"atum/internal/group"
	"atum/internal/ids"
)

// refScheduler is the Scheduler this package shipped before the off switch
// went, verbatim apart from the ref prefix on its names and the behaviours
// both have dropped since: an item's expiry, and the EnqueueGroupWith,
// SetLimits and EnqueueNode entry points nothing called. It is the reference
// model TestSchedulerMatchesReference drives the shipped Scheduler against.
// Two differences are named. It still reads Config.Limit <= 0 as "flow
// control off" (node queues then flush when full, like group queues); the
// test keeps Limit > 0. And it still pushes every pressure transition into
// OnPressure and reports each destination's ArrivalGap, which the shipped
// scheduler dropped for the Level read: both live on test-local copies of the
// shared types, refConfig and refStats. It shares Class, Level and
// ErrOverflow with the shipped scheduler — the vocabulary both are compared
// in — and keeps its own copy of the hysteresis function, refNextLevel, which
// the shipped one was rewritten from.

// refConfig is Config with the pressure hook the reference still fires.
type refConfig struct {
	Config
	// OnPressure, when set, observes pressure-level transitions of
	// node-addressed destinations. It runs inside enqueue/flush — it must
	// not re-enter the scheduler.
	OnPressure func(node ids.NodeID, level Level)
}

// refStats is Stats with the per-destination ArrivalGap the reference still
// reports.
type refStats struct {
	Stats
	Dests []refDestStats
}

// refDestStats is DestStats plus ArrivalGap, the smoothed inter-arrival gap of
// sends to this destination (the adaptive flush window's input).
type refDestStats struct {
	DestStats
	ArrivalGap time.Duration
}

// shipped is the snapshot less what the shipped scheduler no longer reports.
func (r refStats) shipped() Stats {
	out := r.Stats
	for _, d := range r.Dests {
		out.Dests = append(out.Dests, d.DestStats)
	}
	return out
}

// refDestKey identifies one destination: a vgroup (composition key) or a node.
type refDestKey struct {
	grp  group.Key
	node ids.NodeID
}

// refPending is one destination's open batch.
type refPending struct {
	src      group.Composition
	dst      group.Composition
	node     ids.NodeID
	items    []group.BatchItem
	meta     []Class // parallel to items; kept out of group.BatchItem so classes never leak into wire frames
	bytes    int
	deadline time.Duration // 0: deferred to the next FlushDeferred/FlushAll
}

// refArrival is one destination's rate estimate and flow-control state; it
// survives across flushes.
type refArrival struct {
	seen   bool
	lastAt time.Duration
	gap    time.Duration // smoothed inter-arrival gap (fast attack, slow decay)
	// nextAt is the earliest next paced flush (node destinations under flow
	// control): a full carrier leaves at most once per adaptive window.
	nextAt time.Duration
	level  Level
	// per-destination counters surfaced through Snapshot.
	flushes  uint64
	dropOver uint64
}

// refMaxArrivalEntries bounds the rate-estimate map; overflow evicts stale
// destinations (sparser than the idle threshold, which re-estimates from
// scratch anyway).
const refMaxArrivalEntries = 1024

// refScheduler is the per-destination egress queue set. Create with New.
type refScheduler struct {
	cfg     refConfig
	pend    map[refDestKey]*refPending
	order   []refDestKey // first-enqueue order
	arr     map[refDestKey]*refArrival
	armedAt time.Duration // earliest armed timer deadline; 0 = none
	stats   Stats
	// free recycles pending structs (and, through them, their item slices):
	// carrier construction reuses per-queue scratch instead of allocating a
	// fresh batch per flush. Bounded; see refMaxFreePending.
	free []*refPending
	// single is the one-element scratch slice the immediate fast path hands
	// to Flush (the idle case is per-item hot; Flush does not retain items).
	single [1]group.BatchItem
}

// refMaxFreePending bounds the recycled-batch freelist: enough for every
// neighbor destination of a busy node, without letting a churn spike pin
// arbitrary memory.
const refMaxFreePending = 64

// New creates a scheduler.
func newRefScheduler(cfg refConfig) *refScheduler {
	return &refScheduler{
		cfg:  cfg,
		pend: make(map[refDestKey]*refPending),
		arr:  make(map[refDestKey]*refArrival),
	}
}

// EnqueueGroup queues one logical message for every member of dst.
// deferred batches wait for the next FlushDeferred/FlushAll instead of an
// adaptive window (the synchronous engine's round-quantized sends).
func (s *refScheduler) EnqueueGroup(src, dst group.Composition, it group.BatchItem, deferred bool) {
	s.enqueue(refDestKey{grp: dst.Key()}, src, dst, 0, it, deferred, ClassControl)
}

// EnqueueNodeWith queues one raw item for a single node. Under flow control
// (Config.Limit > 0) it returns ErrOverflow when the destination queue is
// full and no lower-priority victim could be evicted — the item was not
// queued.
func (s *refScheduler) EnqueueNodeWith(src group.Composition, to ids.NodeID, it group.BatchItem, class Class) error {
	return s.enqueue(refDestKey{node: to}, src, group.Composition{}, to, it, false, class)
}

// bounded reports whether k is under flow control.
func (s *refScheduler) bounded(k refDestKey) bool {
	return k.node != 0 && s.cfg.Limit > 0
}

func (s *refScheduler) enqueue(k refDestKey, src, dst group.Composition, node ids.NodeID, it group.BatchItem, deferred bool, class Class) error {
	s.stats.Enqueued++
	now := s.now()
	window := s.observe(k, now)
	bounded := s.bounded(k)
	q := s.pend[k]
	if q != nil && (q.src.GroupID != src.GroupID || q.src.Epoch != src.Epoch) {
		// The source composition changed under the open batch (epoch bump,
		// group move): it must leave stamped with its enqueue-time source.
		s.flushKey(k)
		q = nil
	}
	if q == nil {
		a := s.arr[k]
		paceHold := bounded && a != nil && a.nextAt > now
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
			if paceHold && a.nextAt > q.deadline {
				q.deadline = a.nextAt
			}
			s.arm(q.deadline)
		}
		s.pend[k] = q
		s.order = append(s.order, k)
	}
	if bounded {
		sz := len(it.Payload) + group.BatchWireOverhead
		// An item that cannot fit even an empty queue is rejected outright —
		// evicting the whole queue for it would shed admitted traffic for
		// nothing.
		reject := s.cfg.LimitBytes > 0 && sz > s.cfg.LimitBytes
		// Otherwise evict lower-priority victims until BOTH the item and the
		// byte bound hold (one victim may free far fewer bytes than the
		// newcomer needs).
		for !reject && s.overLimit(q, sz) {
			if !s.evictFor(k, q, class) {
				reject = true // no lower-priority victim: the new item is the drop
			}
		}
		if reject {
			s.stats.DroppedOverflow++
			if a := s.arr[k]; a != nil {
				a.dropOver++
			}
			s.updatePressure(k)
			return ErrOverflow
		}
	}
	q.items = append(q.items, it)
	q.meta = append(q.meta, class)
	q.bytes += len(it.Payload) + group.BatchWireOverhead
	if len(q.items) >= s.cfg.MaxBatch || q.bytes >= s.cfg.MaxBytes {
		if bounded {
			// Paced drain: a full carrier leaves at most once per window;
			// excess items wait (bounded by Limit above).
			if a := s.arr[k]; a == nil || a.nextAt <= now {
				s.pacedFlush(k, now)
			}
		} else {
			s.flushKey(k)
		}
	}
	s.updatePressure(k)
	return nil
}

// overLimit reports whether admitting extra bytes would exceed the queue
// bounds.
func (s *refScheduler) overLimit(q *refPending, extra int) bool {
	if len(q.items) >= s.cfg.Limit {
		return true
	}
	return s.cfg.LimitBytes > 0 && q.bytes+extra > s.cfg.LimitBytes
}

// evictFor drops the oldest queued item whose class is strictly lower
// priority (greater value) than class, making room for a more important
// item. Returns false when no such victim exists.
func (s *refScheduler) evictFor(k refDestKey, q *refPending, class Class) bool {
	victim, worst := -1, class
	for i, c := range q.meta {
		if c > worst {
			victim, worst = i, c
		}
	}
	if victim < 0 {
		return false
	}
	q.bytes -= len(q.items[victim].Payload) + group.BatchWireOverhead
	copy(q.items[victim:], q.items[victim+1:])
	q.items[len(q.items)-1] = group.BatchItem{}
	q.items = q.items[:len(q.items)-1]
	copy(q.meta[victim:], q.meta[victim+1:])
	q.meta = q.meta[:len(q.meta)-1]
	s.stats.DroppedOverflow++
	if a := s.arr[k]; a != nil {
		a.dropOver++
	}
	return true
}

// observe updates the destination's arrival estimate and returns the flush
// window a batch opened now should use (see the package comment).
func (s *refScheduler) observe(k refDestKey, now time.Duration) time.Duration {
	a := s.arr[k]
	if a == nil {
		if len(s.arr) >= refMaxArrivalEntries {
			s.pruneArrivals(now)
		}
		a = &refArrival{}
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
		return 0 // no rate estimate yet: behave as idle
	}
	if gap < a.gap || a.gap == 0 {
		a.gap = gap // fast attack: react to the first burst arrival
	} else {
		a.gap = (3*a.gap + gap) / 4 // slow decay back toward idle
	}
	return s.windowFromGap(a.gap)
}

// windowFromGap derives the flush window from a smoothed inter-arrival gap.
func (s *refScheduler) windowFromGap(gap time.Duration) time.Duration {
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
func (s *refScheduler) pruneArrivals(now time.Duration) {
	stale := 16 * s.cfg.MaxWindow
	if stale <= 0 {
		stale = time.Second
	}
	for k, a := range s.arr {
		if _, open := s.pend[k]; !open && now-a.lastAt > stale {
			delete(s.arr, k)
		}
	}
	if len(s.arr) >= refMaxArrivalEntries {
		// Every entry is hot (or hostile): reset rather than grow unbounded.
		for k := range s.arr {
			if _, open := s.pend[k]; !open {
				delete(s.arr, k)
			}
		}
	}
}

// FlushAll transmits every pending batch, in first-enqueue order, backlogs
// included — flow-control pacing does not apply. The engine calls it before
// every replicated-state replacement and at shutdown.
func (s *refScheduler) FlushAll() {
	for len(s.order) > 0 {
		s.flushKey(s.order[0])
	}
}

// FlushDeferred transmits every deferred batch (the ones waiting for the
// synchronous engine's round tick), leaving windowed and paced queues to
// their timers. The engine calls it at every round tick.
func (s *refScheduler) FlushDeferred() {
	for i := 0; i < len(s.order); {
		k := s.order[i]
		if q := s.pend[k]; q != nil && q.deadline == 0 {
			s.flushKey(k) // removes order[i]; re-examine the same index
			continue
		}
		i++
	}
}

// OnTimer transmits every batch whose window has expired and re-arms for the
// next pending deadline. The owner routes its flush-timer callback here.
func (s *refScheduler) OnTimer() {
	s.armedAt = 0
	now := s.now()
	due := make([]refDestKey, 0, len(s.order))
	for _, k := range s.order {
		if q := s.pend[k]; q != nil && q.deadline > 0 && q.deadline <= now {
			due = append(due, k)
		}
	}
	for _, k := range due {
		if s.bounded(k) {
			s.pacedFlush(k, now)
		} else {
			s.flushKey(k)
		}
	}
	// Re-arm for the earliest remaining windowed batch (deferred batches wait
	// for FlushDeferred/FlushAll).
	var next time.Duration
	for _, k := range s.order {
		if q := s.pend[k]; q != nil && q.deadline > 0 && (next == 0 || q.deadline < next) {
			next = q.deadline
		}
	}
	if next > 0 {
		s.arm(next)
	}
}

// flushKey fully drains one destination's batch, splitting the backlog into
// carrier-sized chunks (MaxBatch items / MaxBytes bytes each).
func (s *refScheduler) flushKey(k refDestKey) {
	q, ok := s.pend[k]
	if !ok {
		return
	}
	s.removeQueue(k)
	for len(q.items) > 0 {
		n := s.carrierPrefix(q)
		s.emit(k, q, n)
		s.shift(q, n)
	}
	s.recycle(q)
	s.updatePressure(k)
}

// pacedFlush emits at most one carrier for a flow-controlled node queue and
// stamps the destination's next allowed flush one adaptive window ahead; the
// remainder (if any) stays queued with its deadline moved to that stamp.
func (s *refScheduler) pacedFlush(k refDestKey, now time.Duration) {
	q, ok := s.pend[k]
	if !ok {
		return
	}
	a := s.arr[k]
	if len(q.items) == 0 {
		s.removeQueue(k)
		s.recycle(q)
		s.updatePressure(k)
		return
	}
	n := s.carrierPrefix(q)
	s.emit(k, q, n)
	s.shift(q, n)
	var pace time.Duration
	if a != nil {
		pace = s.windowFromGap(a.gap)
		a.nextAt = now + pace
	}
	if len(q.items) == 0 {
		s.removeQueue(k)
		s.recycle(q)
	} else {
		q.deadline = now + pace
		s.arm(q.deadline)
	}
	s.updatePressure(k)
}

// carrierPrefix returns how many leading items form one carrier under the
// MaxBatch and MaxBytes caps (always at least one; like the enqueue-time
// trigger, MaxBytes is crossed by the item that exceeds it, not anticipated).
func (s *refScheduler) carrierPrefix(q *refPending) int {
	n, bytes := 0, 0
	for n < len(q.items) {
		if n > 0 && n >= s.cfg.MaxBatch {
			break
		}
		bytes += len(q.items[n].Payload) + group.BatchWireOverhead
		n++
		if s.cfg.MaxBytes > 0 && bytes >= s.cfg.MaxBytes {
			break
		}
	}
	return n
}

// emit transmits the first n queued items as one carrier.
func (s *refScheduler) emit(k refDestKey, q *refPending, n int) {
	s.stats.Flushes++
	s.stats.Items += uint64(n)
	if a := s.arr[k]; a != nil {
		a.flushes++
	}
	s.cfg.Flush(q.src, q.dst, q.node, q.items[:n])
}

// shift drops the first n items from the queue (transmitted), keeping the
// backing arrays.
func (s *refScheduler) shift(q *refPending, n int) {
	if n >= len(q.items) {
		clear(q.items)
		q.items, q.meta, q.bytes = q.items[:0], q.meta[:0], 0
		return
	}
	for i := 0; i < n; i++ {
		q.bytes -= len(q.items[i].Payload) + group.BatchWireOverhead
	}
	copy(q.items, q.items[n:])
	copy(q.meta, q.meta[n:])
	for i := len(q.items) - n; i < len(q.items); i++ {
		q.items[i] = group.BatchItem{}
	}
	q.items, q.meta = q.items[:len(q.items)-n], q.meta[:len(q.meta)-n]
}

// removeQueue unlinks a destination's queue from the pending set and order.
func (s *refScheduler) removeQueue(k refDestKey) {
	delete(s.pend, k)
	for i := range s.order {
		if s.order[i] == k {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// updatePressure recomputes a flow-controlled destination's pressure level
// and fires OnPressure on transitions.
func (s *refScheduler) updatePressure(k refDestKey) {
	if !s.bounded(k) {
		return
	}
	a := s.arr[k]
	if a == nil {
		return
	}
	depth := 0
	if q := s.pend[k]; q != nil {
		depth = len(q.items)
	}
	lvl := refNextLevel(a.level, depth, s.cfg.Limit)
	if lvl != a.level {
		a.level = lvl
		if s.cfg.OnPressure != nil {
			s.cfg.OnPressure(k.node, lvl)
		}
	}
}

// newPending opens a destination batch, reusing a recycled struct (and its
// item slice's backing array) when one is free.
func (s *refScheduler) newPending(src, dst group.Composition, node ids.NodeID) *refPending {
	if n := len(s.free); n > 0 {
		q := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		q.src, q.dst, q.node, q.bytes, q.deadline = src.Clone(), dst.Clone(), node, 0, 0
		return q
	}
	return &refPending{src: src.Clone(), dst: dst.Clone(), node: node}
}

// recycle returns a flushed batch to the freelist. Item entries are cleared
// so the recycled array does not pin payload buffers between batches.
func (s *refScheduler) recycle(q *refPending) {
	if len(s.free) >= refMaxFreePending {
		return
	}
	clear(q.items)
	q.items, q.meta, q.bytes = q.items[:0], q.meta[:0], 0
	q.src, q.dst = group.Composition{}, group.Composition{}
	s.free = append(s.free, q)
}

// arm requests a timer for the given deadline unless an earlier one is
// already armed.
func (s *refScheduler) arm(deadline time.Duration) {
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

func (s *refScheduler) now() time.Duration {
	if s.cfg.Now == nil {
		return 0
	}
	return s.cfg.Now()
}

// Pending reports the open destination batches and the items they hold.
func (s *refScheduler) Pending() (dests, items int) {
	for _, q := range s.pend {
		items += len(q.items)
	}
	return len(s.pend), items
}

// Snapshot returns the aggregate counters plus the flow-control state of
// every tracked node-addressed destination. Dests is freshly allocated;
// callers own it.
func (s *refScheduler) Snapshot() refStats {
	out := refStats{Stats: s.stats}
	for k, a := range s.arr {
		if k.node == 0 {
			continue
		}
		d := refDestStats{DestStats: DestStats{
			Node:            k.node,
			Level:           a.level,
			Flushes:         a.flushes,
			DroppedOverflow: a.dropOver,
		}, ArrivalGap: a.gap}
		if q := s.pend[k]; q != nil {
			d.Depth, d.Bytes = len(q.items), q.bytes
		}
		out.Dests = append(out.Dests, d)
	}
	sort.Slice(out.Dests, func(i, j int) bool { return out.Dests[i].Node < out.Dests[j].Node })
	return out
}

// refNextLevel applies the hysteresis transition function.
func refNextLevel(cur Level, depth, limit int) Level {
	enterHigh, exitHigh, enterCrit, exitCrit := PressureThresholds(limit)
	switch cur {
	case LevelCritical:
		if depth < exitHigh {
			return LevelLow
		}
		if depth < exitCrit {
			return LevelHigh
		}
		return LevelCritical
	case LevelHigh:
		if depth >= enterCrit {
			return LevelCritical
		}
		if depth < exitHigh {
			return LevelLow
		}
		return LevelHigh
	default:
		if depth >= enterCrit {
			return LevelCritical
		}
		if depth >= enterHigh {
			return LevelHigh
		}
		return LevelLow
	}
}
