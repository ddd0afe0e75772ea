//go:build !race

package group

// Allocation ceilings. The race detector makes sync.Pool drop items at random
// and adds allocations of its own, so these build only without it.

import (
	"testing"

	"atum/internal/crypto"
	"atum/internal/ids"
)

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

// TestObserveOpensEntryInOneAllocation: an entry holds its first four votes
// and its first payload in itself, so opening a message that is not in the
// lending index and collecting up to four votes for it costs the entry alone.
// Each run opens a fresh MsgID with a full copy and three digest-only votes of
// a nine-member source, short of its majority of five: the entry stays
// pending.
func TestObserveOpensEntryInOneAllocation(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	ib.Observe(0, 1, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("warm"))}) // the source's maps
	msgIDs := make([]crypto.Digest, 201)
	for i := range msgIDs {
		msgIDs[i] = crypto.HashUint64(crypto.Hash([]byte("open")), uint64(i))
	}
	payload := []byte("payload")
	digest := crypto.Hash(payload)
	run := 0
	got := testing.AllocsPerRun(200, func() {
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgIDs[run], PayloadDigest: digest, Payload: payload}
		run++
		for from := ids.NodeID(1); from <= 4; from++ {
			if _, ok := ib.Observe(0, from, m); ok {
				t.Fatal("accepted short of a majority")
			}
			m.Payload = nil
		}
	})
	if got != 1 {
		t.Errorf("opening an entry with a payload and four votes allocates %.0f objects, want 1", got)
	}
	if n := ib.Len(); n != 1+len(msgIDs) {
		t.Errorf("%d messages remembered, want %d", n, 1+len(msgIDs))
	}
}
