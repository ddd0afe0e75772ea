package egress

import (
	"fmt"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// harness drives a scheduler with a manual clock and captured flushes.
type harness struct {
	now     time.Duration
	armed   []time.Duration // delays requested via Arm
	flushes []flushRec
	s       *Scheduler
}

type flushRec struct {
	src   group.Composition
	dst   group.Composition
	node  ids.NodeID
	items []group.BatchItem
}

func newHarness(maxBatch int, maxWindow time.Duration) *harness {
	h := &harness{now: time.Second}
	h.s = New(Config{
		MaxBatch:  maxBatch,
		MaxBytes:  1 << 20,
		MaxWindow: maxWindow,
		Now:       func() time.Duration { return h.now },
		Arm:       func(d time.Duration) { h.armed = append(h.armed, d) },
		Flush: func(src, dst group.Composition, node ids.NodeID, items []group.BatchItem) {
			// items is scheduler-owned scratch (Config.Flush): copy to retain.
			h.flushes = append(h.flushes, flushRec{src: src, dst: dst, node: node,
				items: append([]group.BatchItem(nil), items...)})
		},
	})
	return h
}

func comp(gid ids.GroupID, epoch uint64) group.Composition {
	return group.Composition{GroupID: gid, Epoch: epoch,
		Members: []ids.Identity{{ID: ids.NodeID(uint64(gid)*100 + 1)}}}
}

func item(tag byte) group.BatchItem {
	return group.BatchItem{Kind: group.Kind(1), MsgID: crypto.Hash([]byte{tag}), Payload: []byte{tag}}
}

// TestIdleSendsImmediately: with no recent arrivals the window is zero — the
// item is transmitted at enqueue time, with no queueing and no timer. This is
// the "ModeAsync pays no latency at low rates" half of the adaptive window.
func TestIdleSendsImmediately(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	h.s.EnqueueGroup(src, dst, item(1), false)
	if len(h.flushes) != 1 || len(h.flushes[0].items) != 1 {
		t.Fatalf("idle enqueue not transmitted immediately: %d flushes", len(h.flushes))
	}
	if len(h.armed) != 0 {
		t.Fatalf("idle enqueue armed a timer (%v)", h.armed)
	}
	if d, i := h.s.Pending(); d != 0 || i != 0 {
		t.Fatalf("idle enqueue left pending state: %d/%d", d, i)
	}
	// Arrivals sparser than the cap stay immediate forever.
	for k := 0; k < 5; k++ {
		h.now += 50 * time.Millisecond
		h.s.EnqueueGroup(src, dst, item(byte(2+k)), false)
	}
	if len(h.flushes) != 6 {
		t.Fatalf("sparse arrivals queued: %d flushes, want 6", len(h.flushes))
	}
	if got := h.s.Snapshot().Immediate; got != 6 {
		t.Fatalf("Immediate = %d, want 6", got)
	}
}

// TestBurstWidensWindowAndBatches: a burst of same-instant arrivals drops the
// smoothed inter-arrival gap, so the window widens to the cap and subsequent
// items coalesce into one batch, flushed by the window timer.
func TestBurstWidensWindowAndBatches(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	for k := 0; k < 8; k++ {
		h.s.EnqueueGroup(src, dst, item(byte(k)), false)
	}
	// First arrival has no rate estimate: immediate. The rest must queue.
	if len(h.flushes) != 1 {
		t.Fatalf("burst: %d flushes before the window, want 1", len(h.flushes))
	}
	if d, i := h.s.Pending(); d != 1 || i != 7 {
		t.Fatalf("burst pending = %d/%d, want 1/7", d, i)
	}
	if len(h.armed) != 1 {
		t.Fatalf("burst armed %d timers, want 1", len(h.armed))
	}
	// Same-instant arrivals earn the full window cap.
	if h.armed[0] != 5*time.Millisecond {
		t.Fatalf("burst window = %v, want the 5ms cap", h.armed[0])
	}
	h.now += h.armed[0]
	h.s.OnTimer()
	if len(h.flushes) != 2 {
		t.Fatalf("window expiry: %d flushes, want 2", len(h.flushes))
	}
	if got := len(h.flushes[1].items); got != 7 {
		t.Fatalf("batch carried %d items, want 7", got)
	}
	// After a long quiet spell the fast-attack estimate decays: the first
	// arrival of the next burst is immediate again.
	h.now += time.Second
	h.s.EnqueueGroup(src, dst, item(99), false)
	if len(h.flushes) != 3 {
		t.Fatal("post-idle arrival was queued; the slow decay never recovered")
	}
}

// TestWindowIntermediateRates: arrivals slightly faster than the cap earn a
// window between zero and the cap (monotone in the rate).
func TestWindowIntermediateRates(t *testing.T) {
	h := newHarness(64, 16*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	gap := 2 * time.Millisecond // cap/8: active but not saturating
	for k := 0; k < 6; k++ {
		h.s.EnqueueGroup(src, dst, item(byte(k)), false)
		h.s.FlushAll() // isolate window measurement from queue state
		h.now += gap
	}
	if len(h.armed) == 0 {
		t.Fatal("active destination never armed a window")
	}
	last := h.armed[len(h.armed)-1]
	if last <= 0 || last > 16*time.Millisecond {
		t.Fatalf("intermediate window %v outside (0, cap]", last)
	}
}

// TestCountCapForcesFlush: the MaxBatch'th item flushes without a timer.
func TestCountCapForcesFlush(t *testing.T) {
	h := newHarness(3, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	for k := 0; k < 4; k++ {
		h.s.EnqueueGroup(src, dst, item(byte(k)), false)
	}
	// k=0 immediate (idle); k=1..3 fill the 3-item cap and flush.
	if len(h.flushes) != 2 {
		t.Fatalf("%d flushes, want 2", len(h.flushes))
	}
	if got := len(h.flushes[1].items); got != 3 {
		t.Fatalf("cap flush carried %d items, want 3", got)
	}
}

// TestByteCapForcesFlush: exceeding MaxBytes closes a batch early; a
// deferred one then leaves at the round tick.
func TestByteCapForcesFlush(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	h.s.cfg.MaxBytes = 200
	src, dst := comp(1, 1), comp(2, 1)
	big := group.BatchItem{Kind: 1, MsgID: crypto.Hash([]byte("big")), Payload: make([]byte, 120)}
	h.s.EnqueueGroup(src, dst, big, true)
	h.s.EnqueueGroup(src, dst, big, true)
	if d, _ := h.s.Pending(); d != 0 || len(h.flushes) != 0 {
		t.Fatalf("byte cap: %d open batches, %d flushes, want the batch closed and held", d, len(h.flushes))
	}
	h.s.FlushDeferred()
	if len(h.flushes) != 1 || len(h.flushes[0].items) != 2 {
		t.Fatalf("byte cap did not flush: %d flushes", len(h.flushes))
	}
}

// TestDeferredWaitsForFlushAll: deferred batches (the synchronous engine's
// round) arm no timers and wait for the round tick. FlushAll closes them —
// they keep their source and destination — but the tick sends them.
func TestDeferredWaitsForFlushAll(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	for k := 0; k < 3; k++ {
		h.s.EnqueueGroup(src, dst, item(byte(k)), true)
	}
	if len(h.flushes) != 0 || len(h.armed) != 0 {
		t.Fatalf("deferred items transmitted early (%d flushes, %d timers)",
			len(h.flushes), len(h.armed))
	}
	h.s.FlushAll()
	if d, _ := h.s.Pending(); d != 0 || len(h.flushes) != 0 {
		t.Fatalf("FlushAll: %d open batches, %d flushes, want the batch closed and held", d, len(h.flushes))
	}
	h.s.FlushDeferred()
	if len(h.flushes) != 1 || len(h.flushes[0].items) != 3 {
		t.Fatal("FlushDeferred did not send the closed batch")
	}
}

// TestSrcChangeFlushesOpenBatch: a batch must leave stamped with its
// enqueue-time source composition; an epoch bump closes it first, and it
// leaves at the round tick ahead of the batch opened under the new epoch.
func TestSrcChangeFlushesOpenBatch(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	dst := comp(2, 1)
	h.s.EnqueueGroup(comp(1, 1), dst, item(1), true)
	h.s.EnqueueGroup(comp(1, 1), dst, item(2), true)
	h.s.EnqueueGroup(comp(1, 2), dst, item(3), true) // epoch bumped
	if d, i := h.s.Pending(); d != 1 || i != 1 || len(h.flushes) != 0 {
		t.Fatalf("pending after source change = %d/%d with %d flushes, want 1/1 and none before the tick", d, i, len(h.flushes))
	}
	h.s.FlushDeferred()
	if len(h.flushes) != 2 {
		t.Fatalf("the tick sent %d batches, want 2", len(h.flushes))
	}
	if h.flushes[0].src.Epoch != 1 || len(h.flushes[0].items) != 2 || h.flushes[1].src.Epoch != 2 {
		t.Fatalf("first batch src epoch %d with %d items, second epoch %d; want epoch 1 with 2, then epoch 2",
			h.flushes[0].src.Epoch, len(h.flushes[0].items), h.flushes[1].src.Epoch)
	}
}

// TestAloneItemsKeepTheirPlace: an item a carrier must not deliver leaves as
// a batch of its own — at once, or, deferred, at the round tick in the order
// it was sent among the batches closed before the tick, ahead of the open
// ones. It opens no queue and is not counted.
func TestAloneItemsKeepTheirPlace(t *testing.T) {
	h := newHarness(2, 5*time.Millisecond)
	src, a, b := comp(1, 1), comp(2, 1), comp(3, 1)
	h.s.EnqueueAlone(src, a, item(1), false)
	if len(h.flushes) != 1 || h.flushes[0].dst.GroupID != 2 {
		t.Fatalf("an undeferred alone item: %d flushes, want 1 at once", len(h.flushes))
	}
	h.flushes = nil
	h.s.EnqueueGroup(src, b, item(2), true) // stays open
	h.s.EnqueueGroup(src, a, item(3), true)
	h.s.EnqueueAlone(src, b, item(4), true)
	h.s.EnqueueGroup(src, a, item(5), true) // fills the cap: closed after the alone item
	if d, i := h.s.Pending(); d != 1 || i != 1 || len(h.flushes) != 0 {
		t.Fatalf("before the tick: %d/%d pending, %d flushes; want b's open batch and nothing sent", d, i, len(h.flushes))
	}
	h.s.FlushDeferred()
	var got []byte
	for _, f := range h.flushes {
		for _, it := range f.items {
			got = append(got, it.Payload[0])
		}
		got = append(got, '|')
	}
	if string(got) != "\x04|\x03\x05|\x02|" {
		t.Fatalf("the tick sent %q, want the alone item, a's closed batch, then b's open one", got)
	}
	if st := h.s.Snapshot(); st.Enqueued != 3 || st.Items != 3 {
		t.Fatalf("stats %+v count the alone items", st)
	}
}

// TestNodeDestinations: node-addressed queues are independent of group
// queues and flush with the destination node set.
func TestNodeDestinations(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	h.s.cfg.Limit = 64
	src := comp(1, 1)
	h.s.EnqueueNodeWith(src, 42, item(1), ClassControl, 0)
	if len(h.flushes) != 1 || h.flushes[0].node != 42 {
		t.Fatalf("node enqueue: flushes %v", h.flushes)
	}
	// A same-instant burst to one node batches.
	for k := 0; k < 4; k++ {
		h.s.EnqueueNodeWith(src, 42, item(byte(10+k)), ClassControl, 0)
	}
	h.now += 5 * time.Millisecond
	h.s.OnTimer()
	lastFlush := h.flushes[len(h.flushes)-1]
	if lastFlush.node != 42 || len(lastFlush.items) < 3 {
		t.Fatalf("node burst did not batch: %+v", lastFlush)
	}
}

// TestMaxBatchOneNeverQueues: a cap of one is an ordinary cap that the first
// item fills, so even deferred queues keep nothing open: every item is closed
// into a batch of its own for the round tick.
func TestMaxBatchOneNeverQueues(t *testing.T) {
	h := newHarness(1, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	for k := 0; k < 5; k++ {
		h.s.EnqueueGroup(src, dst, item(byte(k)), true)
	}
	h.s.FlushDeferred()
	if len(h.flushes) != 5 {
		t.Fatalf("MaxBatch=1: %d flushes, want 5", len(h.flushes))
	}
	if d, _ := h.s.Pending(); d != 0 {
		t.Fatal("MaxBatch=1 left pending state")
	}
}

// TestOnTimerRearmsForRemaining: expiring one destination's window re-arms
// the timer for the next earliest deadline.
func TestOnTimerRearmsForRemaining(t *testing.T) {
	h := newHarness(64, 8*time.Millisecond)
	src := comp(1, 1)
	dstA, dstB := comp(2, 1), comp(3, 1)
	warm := func(dst group.Composition) {
		h.s.EnqueueGroup(src, dst, item(0), false) // immediate (idle)
		h.s.EnqueueGroup(src, dst, item(1), false) // opens a windowed batch
	}
	warm(dstA)
	h.now += 3 * time.Millisecond
	warm(dstB)
	h.now += 5 * time.Millisecond // dstA's window expired, dstB's has 3ms left
	armedBefore := len(h.armed)
	h.s.OnTimer()
	if d, _ := h.s.Pending(); d != 1 {
		t.Fatalf("pending dests after partial expiry = %d, want 1", d)
	}
	if len(h.armed) != armedBefore+1 {
		t.Fatal("OnTimer did not re-arm for the remaining destination")
	}
}

// TestFlushAllOrder: FlushAll drains destinations in first-enqueue order.
func TestFlushAllOrder(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src := comp(1, 1)
	var want []ids.GroupID
	for g := 10; g < 14; g++ {
		dst := comp(ids.GroupID(g), 1)
		h.s.EnqueueGroup(src, dst, item(byte(g)), true)
		h.s.EnqueueGroup(src, dst, item(byte(g+50)), true)
		want = append(want, dst.GroupID)
	}
	h.s.FlushAll()
	h.s.FlushDeferred()
	if len(h.flushes) != len(want) {
		t.Fatalf("%d flushes, want %d", len(h.flushes), len(want))
	}
	for i, f := range h.flushes {
		if f.dst.GroupID != want[i] {
			t.Fatalf("flush %d went to %v, want %v (first-enqueue order)", i, f.dst.GroupID, want[i])
		}
	}
}

// TestArrivalStatePruned: the rate map stays bounded under many distinct
// destinations.
func TestArrivalStatePruned(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src := comp(1, 1)
	for g := 0; g < 3*maxArrivalEntries; g++ {
		h.s.EnqueueGroup(src, comp(ids.GroupID(g+10), 1), item(byte(g)), true)
		h.s.FlushAll()
		h.now += time.Millisecond
	}
	if len(h.s.arr) > maxArrivalEntries {
		t.Fatalf("arrival map grew to %d entries (cap %d)", len(h.s.arr), maxArrivalEntries)
	}
}

// TestWithdrawnItemsLeaveNoCarrier: as a group batch closes, the scheduler
// asks Config.Withdraw about each of its items. What it withdraws is neither
// framed nor counted, and a batch it empties sends nothing.
func TestWithdrawnItemsLeaveNoCarrier(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	withdrawn := map[crypto.Digest]bool{item(2).MsgID: true, item(3).MsgID: true}
	h.s.cfg.Withdraw = func(_ group.Composition, it group.BatchItem) bool { return withdrawn[it.MsgID] }
	src, a, b := comp(1, 1), comp(2, 1), comp(3, 1)
	h.s.EnqueueGroup(src, a, item(1), true)
	h.s.EnqueueGroup(src, a, item(2), true)
	h.s.EnqueueGroup(src, b, item(3), true)
	h.s.FlushDeferred()
	if len(h.flushes) != 1 || h.flushes[0].dst.GroupID != a.GroupID || len(h.flushes[0].items) != 1 || h.flushes[0].items[0].MsgID != item(1).MsgID {
		t.Fatalf("the tick sent %d batches, want a's with item 1 alone", len(h.flushes))
	}
	if st := h.s.Snapshot(); st.Flushes != 1 || st.Items != 1 {
		t.Errorf("stats count %d carriers of %d items, want 1 of 1", st.Flushes, st.Items)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	for k := 0; k < 5; k++ {
		h.s.EnqueueGroup(src, dst, item(byte(k)), true)
	}
	h.s.FlushAll()
	st := h.s.Snapshot()
	if st.Enqueued != 5 || st.Flushes != 1 || st.Items != 5 || st.Immediate != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func ExampleScheduler() {
	var out []string
	now := time.Second
	s := New(Config{
		MaxBatch: 8, MaxBytes: 1 << 16, MaxWindow: 5 * time.Millisecond,
		Now: func() time.Duration { return now },
		Arm: func(time.Duration) {},
		Flush: func(src, dst group.Composition, node ids.NodeID, items []group.BatchItem) {
			out = append(out, fmt.Sprintf("to %v: %d item(s)", dst.GroupID, len(items)))
		},
	})
	dst := group.Composition{GroupID: 7, Epoch: 1}
	for i := 0; i < 3; i++ {
		s.EnqueueGroup(group.Composition{GroupID: 1, Epoch: 1}, dst,
			group.BatchItem{Kind: 1, MsgID: crypto.Hash([]byte{byte(i)})}, true)
	}
	s.FlushDeferred() // the round tick
	fmt.Println(out[0])
	// Output: to g7: 3 item(s)
}

// TestRecycledBatchesDoNotLeakItems: after a flush the pending struct (and
// its item array) is reused for the destination's next batch; stale entries
// from the previous batch must never resurface.
func TestRecycledBatchesDoNotLeakItems(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	// Warm the arrival estimate so batches open (idle path flushes inline).
	for k := 0; k < 4; k++ {
		h.now += 100 * time.Microsecond
		h.s.EnqueueGroup(src, dst, item(byte(k)), false)
	}
	h.s.FlushAll()
	n0 := len(h.flushes)

	for k := 0; k < 3; k++ {
		h.now += 100 * time.Microsecond
		h.s.EnqueueGroup(src, dst, item(byte(0x10+k)), false)
	}
	h.s.FlushAll()
	first := h.flushes[len(h.flushes)-1]
	if len(h.flushes) != n0+1 || len(first.items) != 3 {
		t.Fatalf("first recycled batch carried %d items, want 3", len(first.items))
	}

	h.now += 100 * time.Microsecond
	h.s.EnqueueGroup(src, dst, item(0x20), false)
	h.s.FlushAll()
	second := h.flushes[len(h.flushes)-1]
	if len(second.items) != 1 {
		t.Fatalf("recycled batch carried %d items, want 1 (stale scratch leaked)", len(second.items))
	}
	if second.items[0].Payload[0] != 0x20 {
		t.Fatalf("recycled batch carried wrong item %x", second.items[0].Payload)
	}
}

// TestSteadyStateBatchAllocs pins the scratch-reuse win: once the freelist
// is warm, an enqueue+flush cycle allocates nothing of its own — no pending
// struct, no item array and, compositions being shared values, no copy of the
// source or destination.
func TestSteadyStateBatchAllocs(t *testing.T) {
	h := newHarness(64, 5*time.Millisecond)
	src, dst := comp(1, 1), comp(2, 1)
	its := []group.BatchItem{item(1), item(2), item(3), item(4)}
	// Warm up: arrival estimate + freelist.
	for k := 0; k < 8; k++ {
		h.now += 100 * time.Microsecond
		for _, it := range its {
			h.s.EnqueueGroup(src, dst, it, false)
		}
		h.s.FlushAll()
	}
	h.flushes = nil
	avg := testing.AllocsPerRun(100, func() {
		h.now += 100 * time.Microsecond
		for _, it := range its {
			h.s.EnqueueGroup(src, dst, it, false)
		}
		h.s.FlushAll()
		h.flushes = h.flushes[:0]
	})
	// One: the retained-record copy in the test harness.
	if avg > 1 {
		t.Fatalf("steady-state batch cycle allocates %.1f objects, want <= 1", avg)
	}
}
