package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"atum/internal/crypto"
)

// refWindow is the dedup window groupState kept before digestWindow: a map
// keyed by the full digest and a FIFO slice, as markAppliedOp had them. It is
// the reference model TestDigestWindowMatchesReference and FuzzDigestWindow
// drive digestWindow against.
type refWindow struct {
	set map[crypto.Digest]bool
	q   []crypto.Digest
}

func (r *refWindow) add(d crypto.Digest, limit int) bool {
	if r.set[d] {
		return false
	}
	if r.set == nil {
		r.set = make(map[crypto.Digest]bool)
	}
	r.set[d] = true
	r.q = append(r.q, d)
	if len(r.q) > limit {
		delete(r.set, r.q[0])
		r.q = r.q[1:]
	}
	return true
}

// windowDigest crafts a digest from a prefix class and a suffix: digests of
// one class share their first 8 bytes, so they contend for one index entry.
func windowDigest(class, suffix byte) crypto.Digest {
	var d crypto.Digest
	binary.LittleEndian.PutUint64(d[:8], 0x5eed_0000_0000_0000|uint64(class))
	d[8], d[31] = suffix, suffix^class
	return d
}

// checkWindow compares w with the reference after a step: the same digests in
// the same order, the same answer for every digest of the pool, and an index
// that places each digest of the window exactly once.
func checkWindow(t *testing.T, step int, w *digestWindow, ref *refWindow, pool []crypto.Digest) {
	t.Helper()
	if !slices.Equal(w.q, ref.q) {
		t.Fatalf("step %d: window order %x, reference %x", step, w.q, ref.q)
	}
	for _, d := range pool {
		if w.has(d) != ref.set[d] {
			t.Fatalf("step %d: has(%x) = %v, reference %v", step, d[:9], w.has(d), ref.set[d])
		}
	}
	placed := make(map[uint64]bool)
	for p, pos := range w.idx {
		placed[pos] = true
		if digestPrefix(w.at(pos)) != p {
			t.Fatalf("step %d: index entry %x points at a digest of another prefix", step, p)
		}
		for _, twin := range w.over[p] {
			if twin <= pos || placed[twin] || digestPrefix(w.at(twin)) != p {
				t.Fatalf("step %d: overflow position %d for prefix %x is misplaced", step, twin, p)
			}
			placed[twin] = true
		}
	}
	if len(placed) != len(w.q) {
		t.Fatalf("step %d: the index places %d positions, the window holds %d", step, len(placed), len(w.q))
	}
	for p := range w.over {
		if _, ok := w.idx[p]; !ok || len(w.over[p]) == 0 {
			t.Fatalf("step %d: overflow entry %x without an index owner", step, p)
		}
	}
}

// runWindow drives a window and the reference with one op sequence. Each op
// byte adds (high bit clear) or tests a digest of the pool.
func runWindow(t *testing.T, limit int, ops []byte) {
	t.Helper()
	var pool []crypto.Digest
	for class := byte(0); class < 3; class++ {
		for suffix := byte(0); suffix < 6; suffix++ {
			pool = append(pool, windowDigest(class, suffix))
		}
	}
	var w digestWindow
	var ref refWindow
	for i, op := range ops {
		d := pool[int(op&0x7f)%len(pool)]
		if op&0x80 == 0 {
			if got, want := w.add(d, limit), ref.add(d, limit); got != want {
				t.Fatalf("step %d: add(%x) = %v, reference %v", i, d[:9], got, want)
			}
		} else if w.has(d) != ref.set[d] {
			t.Fatalf("step %d: has(%x) = %v, reference %v", i, d[:9], w.has(d), ref.set[d])
		}
		checkWindow(t, i, &w, &ref, pool)
	}
}

// TestDigestWindowMatchesReference: over random add and has sequences on
// digests that share prefixes, with a limit small enough that eviction runs
// all the time, the window answers and orders exactly as the map and slice
// it replaced.
func TestDigestWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 300)
		rng.Read(ops)
		runWindow(t, 1+trial%8, ops)
	}
}

// TestDigestWindowEvictsOwnerBeforeTwin: when the digest that owns a prefix's
// index entry leaves, its younger twin in the overflow map takes the entry
// and is still found; the evicted owner is not.
func TestDigestWindowEvictsOwnerBeforeTwin(t *testing.T) {
	owner, twin, other := windowDigest(1, 1), windowDigest(1, 2), windowDigest(2, 1)
	var w digestWindow
	for _, d := range []crypto.Digest{owner, twin, other} {
		if !w.add(d, 3) {
			t.Fatalf("add(%x) refused a new digest", d[:9])
		}
	}
	if len(w.over[digestPrefix(twin)]) != 1 {
		t.Fatalf("the twin is not in the overflow map: %v", w.over)
	}
	if w.add(twin, 3) {
		t.Fatal("a digest in the overflow map was added twice")
	}
	w.add(windowDigest(3, 1), 3) // evicts the owner
	if w.has(owner) || !w.has(twin) {
		t.Fatalf("after the owner's eviction: has(owner) = %v, has(twin) = %v", w.has(owner), w.has(twin))
	}
	if len(w.over) != 0 || w.at(w.idx[digestPrefix(twin)]) != twin {
		t.Fatalf("the twin did not take the owner's index entry: idx %v, over %v", w.idx, w.over)
	}
	if !slices.Equal(w.q, []crypto.Digest{twin, other, windowDigest(3, 1)}) {
		t.Fatalf("window order after the eviction: %x", w.q)
	}
}

// FuzzDigestWindow: the first byte picks the limit, every other byte is one
// add or has on the crafted pool; the window must match the reference after
// every step.
func FuzzDigestWindow(f *testing.F) {
	f.Add([]byte{3, 6, 7, 12, 0x86, 13, 14, 0x87, 6})
	f.Add([]byte{1, 0, 6, 0, 6, 12, 0x80, 0x86})
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 0x80, 0x91})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runWindow(t, 1+int(data[0]%8), data[1:])
	})
}
