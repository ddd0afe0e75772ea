//go:build !race

package group

// Allocation ceilings. The race detector makes sync.Pool drop items at random
// and adds allocations of its own, so these build only without it.

import "testing"

// TestBatchFrameAllocCeilings bounds what BenchmarkBatchEncodeDecode
// measures: a frame costs its exact-size output buffer to encode (1 measured),
// nothing to walk, and one presized slice to collect (UnpackBatch), however
// many items it holds. The encode ceiling leaves room for the pooled scratch
// encoder being dropped and regrown by a collection during the run; an
// allocation per item (64 here) fails every ceiling.
func TestBatchFrameAllocCeilings(t *testing.T) {
	items := benchFrameItems()
	frame := encodeFrame(items, true) // also warms the encoder pool
	if got := testing.AllocsPerRun(200, func() { _ = encodeFrame(items, true) }); got > 8 {
		t.Errorf("encode allocates %.0f objects per frame, want <= 8", got)
	}
	carrier := GroupMsg{Payload: frame}
	visited := 0
	got := testing.AllocsPerRun(200, func() {
		if err := EachInBatch(carrier, func(GroupMsg) { visited++ }); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("the walk allocates %.0f objects per frame, want 0", got)
	}
	if visited != 201*len(items) {
		t.Errorf("the walk visited %d items in 201 walks of %d", visited, len(items))
	}
	got = testing.AllocsPerRun(200, func() {
		if _, err := UnpackBatch(carrier); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("UnpackBatch allocates %.0f objects per frame, want <= 1", got)
	}
}
