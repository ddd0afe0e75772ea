package egress

import (
	"errors"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// flowHarness is the manual-clock harness of egress_test.go plus flow-control
// configuration and a recorder of pressure-level changes.
type flowHarness struct {
	*harness
	levels []Level
}

func newFlowHarness(maxBatch, limit int, maxWindow time.Duration) *flowHarness {
	fh := &flowHarness{harness: newHarness(maxBatch, maxWindow)}
	fh.s.cfg.Limit = limit
	return fh
}

// record reads dest's level and appends it when it differs from the last one
// recorded (Low before the first).
func (fh *flowHarness) record(dest ids.NodeID) {
	last := LevelLow
	if n := len(fh.levels); n > 0 {
		last = fh.levels[n-1]
	}
	if lvl := fh.s.Level(dest); lvl != last {
		fh.levels = append(fh.levels, lvl)
	}
}

// floodNode enqueues count back-to-back items of one class for one node,
// recording its level after each, and returns how many were rejected with
// ErrOverflow.
func (fh *flowHarness) floodNode(to ids.NodeID, count int, class Class) int {
	rejected := 0
	src := comp(1, 1)
	for k := 0; k < count; k++ {
		if err := fh.s.EnqueueNodeWith(src, to, item(byte(k)), class); err != nil {
			rejected++
		}
		fh.record(to)
	}
	return rejected
}

// TestPressureHookHysteresis pins the enter/exit thresholds of the pressure
// levels: High enters at limit/2 and exits below limit/4; Critical enters at
// 7·limit/8 and exits (to High) below 5·limit/8. In between, the level must
// hold — no flapping.
func TestPressureHookHysteresis(t *testing.T) {
	const limit = 32
	enterHigh, exitHigh, enterCrit, exitCrit := PressureThresholds(limit)
	if enterHigh != 16 || exitHigh != 8 || enterCrit != 28 || exitCrit != 20 {
		t.Fatalf("thresholds for limit=32: got %d/%d/%d/%d, want 16/8/28/20",
			enterHigh, exitHigh, enterCrit, exitCrit)
	}
	fh := newFlowHarness(64, limit, 5*time.Millisecond)
	const dest = ids.NodeID(42)
	k := destKey{node: dest}

	// Fill to just under enterHigh: no transition. (The first enqueue is the
	// idle immediate transmit; everything after queues, since same-instant
	// arrivals earn the full window.)
	fh.floodNode(dest, enterHigh, ClassBulk) // 1 immediate + 15 queued
	if d, _ := fh.s.Pending(); d != 1 {
		t.Fatalf("expected one open queue, got %d", d)
	}
	if len(fh.levels) != 0 {
		t.Fatalf("below enterHigh fired transitions: %v", fh.levels)
	}
	// One more reaches depth 16 = enterHigh.
	fh.floodNode(dest, 1, ClassBulk)
	if len(fh.levels) != 1 || fh.levels[0] != LevelHigh {
		t.Fatalf("at enterHigh: transitions %v, want [high]", fh.levels)
	}
	// Climb to enterCrit.
	fh.floodNode(dest, enterCrit-enterHigh, ClassBulk)
	if len(fh.levels) != 2 || fh.levels[1] != LevelCritical {
		t.Fatalf("at enterCrit: transitions %v, want [high critical]", fh.levels)
	}

	// Drain one paced carrier: depth 28 → 28-28... the queue holds
	// enterCrit items; a paced flush emits up to MaxBatch (64) — cap MaxBatch
	// to force partial drains instead.
	fh.s.cfg.MaxBatch = 9
	fh.now += 5 * time.Millisecond
	fh.s.OnTimer() // emits 9, depth 28→19: below exitCrit (20) → High
	fh.record(dest)
	if len(fh.levels) != 3 || fh.levels[2] != LevelHigh {
		t.Fatalf("after paced drain: transitions %v, want [... high]", fh.levels)
	}
	// Refill back above exitCrit but below enterCrit: must HOLD High
	// (hysteresis: re-entering Critical needs enterCrit).
	fh.floodNode(dest, 6, ClassBulk) // depth 19→25 < 28
	if len(fh.levels) != 3 {
		t.Fatalf("refill below enterCrit flapped: %v", fh.levels)
	}
	// Drain until below exitHigh → Low.
	for i := 0; i < 4; i++ {
		fh.now += 5 * time.Millisecond
		fh.s.OnTimer()
		fh.record(dest)
	}
	if d, items := fh.s.Pending(); d != 0 || items != 0 {
		t.Fatalf("queue not drained: %d/%d", d, items)
	}
	last := fh.levels[len(fh.levels)-1]
	if last != LevelLow {
		t.Fatalf("drained queue level = %v, want low (transitions %v)", last, fh.levels)
	}
	_ = k
}

// TestNextLevelMatchesReference: the hysteresis function agrees with the
// reference's copy on every level, depth and limit up to 64.
func TestNextLevelMatchesReference(t *testing.T) {
	for limit := 0; limit <= 64; limit++ {
		for depth := 0; depth <= limit+1; depth++ {
			for _, cur := range []Level{LevelLow, LevelHigh, LevelCritical} {
				if got, want := nextLevel(cur, depth, limit), refNextLevel(cur, depth, limit); got != want {
					t.Fatalf("nextLevel(%v, %d, %d) = %v, the reference %v", cur, depth, limit, got, want)
				}
			}
		}
	}
}

// TestPressureThresholdsDegenerateLimits: tiny limits must still yield
// exitable levels — an empty queue maps to Low from every level, and the
// Critical pair never undercuts the High pair.
func TestPressureThresholdsDegenerateLimits(t *testing.T) {
	for limit := 1; limit <= 4; limit++ {
		enterHigh, exitHigh, enterCrit, exitCrit := PressureThresholds(limit)
		if enterHigh < 1 || exitHigh < 1 || enterCrit < enterHigh || exitCrit < exitHigh {
			t.Fatalf("limit %d: thresholds %d/%d/%d/%d not floored", limit,
				enterHigh, exitHigh, enterCrit, exitCrit)
		}
		for _, from := range []Level{LevelLow, LevelHigh, LevelCritical} {
			if got := nextLevel(from, 0, limit); got != LevelLow {
				t.Fatalf("limit %d: empty queue from %v -> %v, want low (stuck level)", limit, from, got)
			}
		}
		if nextLevel(LevelLow, limit, limit) == LevelLow {
			t.Fatalf("limit %d: full queue still reports Low", limit)
		}
	}
}

// TestPacedDrainBoundsCarrierRate: under flow control a full batch does not
// flush immediately more than once per adaptive window — a same-instant
// flood yields one carrier now and queues the rest, instead of dumping
// back-to-back carriers onto the transport.
func TestPacedDrainBoundsCarrierRate(t *testing.T) {
	fh := newFlowHarness(8, 64, 5*time.Millisecond)
	const dest = ids.NodeID(7)
	fh.floodNode(dest, 30, ClassBulk) // 1 immediate + 29 queued
	// First full batch (8 items) flushes immediately (nextAt unset); the
	// remaining 21 items must be held by pacing, not emitted.
	var carriers, items int
	for _, f := range fh.flushes {
		if f.node == dest && len(f.items) > 1 {
			carriers++
			items += len(f.items)
		}
	}
	if carriers != 1 || items != 8 {
		t.Fatalf("same-instant flood emitted %d carriers / %d items, want 1/8 (paced)", carriers, items)
	}
	if _, pending := fh.s.Pending(); pending != 21 {
		t.Fatalf("pending backlog = %d, want 21", pending)
	}
	// Each window tick drains one more carrier.
	fh.now += 5 * time.Millisecond
	fh.s.OnTimer()
	if _, pending := fh.s.Pending(); pending != 13 {
		t.Fatalf("backlog after one window = %d, want 13", pending)
	}
	// FlushAll overrides pacing and drains the rest in carrier-sized chunks.
	fh.s.FlushAll()
	if _, pending := fh.s.Pending(); pending != 0 {
		t.Fatal("FlushAll left a backlog")
	}
	last := fh.flushes[len(fh.flushes)-1]
	if len(last.items) > 8 {
		t.Fatalf("FlushAll emitted an oversized carrier (%d items)", len(last.items))
	}
}

// TestOverflowEvictsLowerClassFirst: a full queue admits higher-priority
// items by evicting the oldest strictly-lower-priority one; equal-priority
// arrivals are rejected with ErrOverflow.
func TestOverflowEvictsLowerClassFirst(t *testing.T) {
	fh := newFlowHarness(64, 8, 5*time.Millisecond)
	const dest = ids.NodeID(9)
	src := comp(1, 1)
	if rej := fh.floodNode(dest, 9, ClassBulk); rej != 0 {
		// 1 immediate + 8 queued = exactly at the limit, nothing rejected.
		t.Fatalf("fill rejected %d items", rej)
	}
	// Equal priority: rejected.
	if err := fh.s.EnqueueNodeWith(src, dest, item(0xAA), ClassBulk); !errors.Is(err, ErrOverflow) {
		t.Fatalf("equal-priority overflow returned %v, want ErrOverflow", err)
	}
	// Higher priority (Data < Bulk): evicts a bulk item and is admitted.
	if err := fh.s.EnqueueNodeWith(src, dest, item(0xBB), ClassData); err != nil {
		t.Fatalf("higher-priority item rejected: %v", err)
	}
	st := fh.s.Snapshot()
	if st.DroppedOverflow != 2 { // the rejected bulk + the evicted bulk
		t.Fatalf("DroppedOverflow = %d, want 2", st.DroppedOverflow)
	}
	// Control outranks Data too.
	if err := fh.s.EnqueueNodeWith(src, dest, item(0xCC), ClassControl); err != nil {
		t.Fatalf("control item rejected: %v", err)
	}
	fh.s.FlushAll()
	// The admitted Data and Control items must actually leave.
	var seen []byte
	for _, f := range fh.flushes {
		for _, it := range f.items {
			seen = append(seen, it.Payload[0])
		}
	}
	var gotData, gotCtl bool
	for _, b := range seen {
		if b == 0xBB {
			gotData = true
		}
		if b == 0xCC {
			gotCtl = true
		}
	}
	if !gotData || !gotCtl {
		t.Fatalf("admitted items missing from flushes (data=%v control=%v)", gotData, gotCtl)
	}
}

// TestSnapshotReportsDestState: Snapshot surfaces per-destination depth,
// level, and drop counters for node-addressed queues only.
func TestSnapshotReportsDestState(t *testing.T) {
	fh := newFlowHarness(64, 8, 5*time.Millisecond)
	fh.floodNode(77, 12, ClassBulk) // 1 immediate, 8 queued (limit), 3 rejected
	fh.s.EnqueueGroup(comp(1, 1), comp(2, 1), item(1), true)
	totals := fh.s.Snapshot()
	dests := totals.Dests
	if len(dests) != 1 || dests[0].Node != 77 {
		t.Fatalf("snapshot dests = %+v, want exactly node 77", dests)
	}
	d := dests[0]
	if d.Depth != 8 || d.DroppedOverflow != 3 {
		t.Fatalf("dest stats = %+v, want depth 8, overflow 3", d)
	}
	if d.Level != LevelCritical { // depth 8 ≥ 7·8/8 = 7
		t.Fatalf("dest level = %v, want critical", d.Level)
	}
	if totals.DroppedOverflow != 3 {
		t.Fatalf("total overflow = %d, want 3", totals.DroppedOverflow)
	}
}

// TestOverflowEvictionRespectsByteBudget: admitting a large higher-priority
// item evicts as many lower-priority victims as the byte bound requires —
// one tiny victim must not buy an unbounded byte overshoot — and an item
// that cannot fit even an empty queue is rejected without mass eviction.
func TestOverflowEvictionRespectsByteBudget(t *testing.T) {
	fh := newFlowHarness(64, 64, 5*time.Millisecond)
	fh.s.cfg.LimitBytes = 2048
	const dest = ids.NodeID(8)
	src := comp(1, 1)
	// Warm past the idle fast path, then fill with small bulk items.
	fh.floodNode(dest, 1, ClassBulk)
	small := func(tag byte) group.BatchItem {
		return group.BatchItem{Kind: 1, MsgID: crypto.Hash([]byte{tag}), Payload: make([]byte, 8)}
	}
	for k := 0; k < 30; k++ {
		if err := fh.s.EnqueueNodeWith(src, dest, small(byte(k)), ClassBulk); err != nil {
			t.Fatalf("fill rejected item %d: %v", k, err)
		}
	}
	// A 1 KiB data item needs many 8-byte victims evicted to fit.
	big := group.BatchItem{Kind: 1, MsgID: crypto.Hash([]byte("big")), Payload: make([]byte, 1024)}
	if err := fh.s.EnqueueNodeWith(src, dest, big, ClassData); err != nil {
		t.Fatalf("big data item rejected: %v", err)
	}
	if q := fh.s.pend[destKey{node: dest}]; q == nil || q.bytes > fh.s.cfg.LimitBytes {
		t.Fatalf("queue bytes %d exceed LimitBytes %d after eviction", q.bytes, fh.s.cfg.LimitBytes)
	}
	// An item over the whole byte budget is rejected outright, leaving the
	// queue untouched.
	depthBefore := len(fh.s.pend[destKey{node: dest}].items)
	huge := group.BatchItem{Kind: 1, MsgID: crypto.Hash([]byte("huge")), Payload: make([]byte, 4096)}
	if err := fh.s.EnqueueNodeWith(src, dest, huge, ClassControl); !errors.Is(err, ErrOverflow) {
		t.Fatalf("over-budget item returned %v, want ErrOverflow", err)
	}
	if got := len(fh.s.pend[destKey{node: dest}].items); got != depthBefore {
		t.Fatalf("over-budget rejection evicted %d queued items", depthBefore-got)
	}
}

// TestFlushDeferredLeavesWindowedQueues: the round tick drains deferred
// (ModeSync group) batches but leaves windowed/paced queues to their timers.
func TestFlushDeferredLeavesWindowedQueues(t *testing.T) {
	fh := newFlowHarness(64, 64, 5*time.Millisecond)
	src := comp(1, 1)
	fh.s.EnqueueGroup(src, comp(2, 1), item(1), true) // deferred
	fh.s.EnqueueGroup(src, comp(2, 1), item(2), true)
	fh.floodNode(9, 3, ClassBulk) // windowed node queue (1 immediate + 2 queued)
	fh.s.FlushDeferred()
	if d, items := fh.s.Pending(); d != 1 || items != 2 {
		t.Fatalf("after FlushDeferred: pending %d/%d, want the node queue's 1/2", d, items)
	}
	last := fh.flushes[len(fh.flushes)-1]
	if last.dst.GroupID != 2 || len(last.items) != 2 {
		t.Fatalf("FlushDeferred flushed %+v, want the deferred group batch", last)
	}
}
