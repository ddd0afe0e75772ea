package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

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

func (r *refWindow) get(d crypto.Digest) (struct{}, bool) { return struct{}{}, r.set[d] }

// refDelivered is the digest record deliveredIndex kept before digestWindow:
// delivery times in a map keyed by the full digest, and the map's keys in a
// FIFO slice. It is the reference model TestDeliveredIndexMatchesReference
// and FuzzDeliveredIndex drive the delivered index against.
type refDelivered struct {
	at    map[crypto.Digest]time.Duration
	order []crypto.Digest
}

func (r *refDelivered) add(d crypto.Digest, now time.Duration, limit int) bool {
	if _, ok := r.at[d]; ok {
		return false
	}
	if r.at == nil {
		r.at = make(map[crypto.Digest]time.Duration)
	}
	r.at[d] = now
	r.order = append(r.order, d)
	if len(r.order) > limit {
		delete(r.at, r.order[0])
		r.order = r.order[1:]
	}
	return true
}

func (r *refDelivered) get(d crypto.Digest) (time.Duration, bool) {
	at, ok := r.at[d]
	return at, ok
}

// windowDigest crafts a digest from a prefix class and a suffix: digests of
// one class share their first 4 bytes, so they contend for one index entry.
func windowDigest(class, suffix byte) crypto.Digest {
	var d crypto.Digest
	binary.LittleEndian.PutUint32(d[:4], 0x5eed_0000|uint32(class))
	d[4], d[31] = suffix, suffix^class
	return d
}

// windowPool is the digests the reference tests draw from: three prefix
// classes of six digests each.
func windowPool() []crypto.Digest {
	var pool []crypto.Digest
	for class := byte(0); class < 3; class++ {
		for suffix := byte(0); suffix < 6; suffix++ {
			pool = append(pool, windowDigest(class, suffix))
		}
	}
	return pool
}

// checkWindow compares w with a reference after a step: the same digests and
// values in the same order, the same answer for every digest of the pool, a
// table at most half used that places each digest of the window exactly once,
// where a probe from its home reaches it, and no chunk the window's positions
// do not span.
func checkWindow[V comparable](t *testing.T, step int, w *digestWindow[V], order []crypto.Digest, want func(crypto.Digest) (V, bool), pool []crypto.Digest) {
	t.Helper()
	var got []crypto.Digest
	for d, v := range w.all() {
		if wv, _ := want(d); v != wv {
			t.Fatalf("step %d: %x holds %v, reference %v", step, d[:5], v, wv)
		}
		got = append(got, d)
	}
	if !slices.Equal(got, order) || w.len() != len(order) {
		t.Fatalf("step %d: window order %x (len %d), reference %x", step, got, w.len(), order)
	}
	for _, d := range pool {
		v, ok := w.get(d)
		if wv, wok := want(d); ok != wok || v != wv || w.has(d) != wok {
			t.Fatalf("step %d: get(%x) = %v, %v, reference %v, %v", step, d[:5], v, ok, wv, wok)
		}
	}
	size := len(w.table)
	if w.n > 0 && (size&(size-1) != 0 || 2*w.n > size) {
		t.Fatalf("step %d: %d digests in a table of %d slots, want a power of two at most half used", step, w.n, size)
	}
	placed := make(map[uint32]bool)
	for i, v := range w.table {
		if v == 0 {
			continue
		}
		pos := w.origin + v - 1
		if pos-w.base >= uint32(w.n) || placed[pos] {
			t.Fatalf("step %d: table slot %d holds position %d, outside the window or placed twice", step, i, pos)
		}
		placed[pos] = true
		for j := w.home(w.at(pos)); j != i; j = (j + 1) & (size - 1) {
			if w.table[j] == 0 {
				t.Fatalf("step %d: position %d in slot %d lies past free slot %d of its probe", step, pos, i, j)
			}
		}
	}
	if len(placed) != len(order) {
		t.Fatalf("step %d: the index places %d positions, the window holds %d", step, len(placed), len(order))
	}
	span := 0
	if w.n > 0 {
		span = (int(w.base%windowChunkSlots)+w.n-1)/windowChunkSlots + 1
	}
	if len(w.chunks) != span {
		t.Fatalf("step %d: %d chunks for %d digests from slot %d, want %d", step, len(w.chunks), w.n, w.base%windowChunkSlots, span)
	}
}

// runWindow drives a dedup window that starts at position base and the
// reference with one op sequence. Each op byte adds (high bit clear) or tests
// a digest of the pool.
func runWindow(t *testing.T, base uint32, limit int, ops []byte) {
	t.Helper()
	pool := windowPool()
	w := digestWindow[struct{}]{base: base}
	var ref refWindow
	for i, op := range ops {
		d := pool[int(op&0x7f)%len(pool)]
		if op&0x80 == 0 {
			if got, want := w.add(d, struct{}{}, limit), ref.add(d, limit); got != want {
				t.Fatalf("step %d: add(%x) = %v, reference %v", i, d[:5], got, want)
			}
		} else if w.has(d) != ref.set[d] {
			t.Fatalf("step %d: has(%x) = %v, reference %v", i, d[:5], w.has(d), ref.set[d])
		}
		checkWindow(t, i, &w, ref.q, ref.get, pool)
	}
}

// runDelivered drives a delivered index whose window starts at position base
// and the reference with one op sequence, delivering each digest at its step.
// Each op byte delivers (high bit clear) or looks up a digest of the pool.
func runDelivered(t *testing.T, base uint32, limit int, ops []byte) {
	t.Helper()
	pool := windowPool()
	var x deliveredIndex
	x.digests.base = base
	var ref refDelivered
	for i, op := range ops {
		d, now := pool[int(op&0x7f)%len(pool)], time.Duration(i)*time.Millisecond
		if op&0x80 == 0 {
			if got, want := x.digests.add(d, now, limit), ref.add(d, now, limit); got != want {
				t.Fatalf("step %d: add(%x) = %v, reference %v", i, d[:5], got, want)
			}
		} else {
			at, ok := x.when(d)
			if wat, wok := ref.get(d); ok != wok || at != wat || x.has(d) != wok {
				t.Fatalf("step %d: when(%x) = %v, %v, reference %v, %v", i, d[:5], at, ok, wat, wok)
			}
		}
		checkWindow(t, i, &x.digests, ref.order, ref.get, pool)
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
		runWindow(t, 0, 1+trial%8, ops)
	}
}

// TestDeliveredIndexMatchesReference: over random deliveries and lookups on
// digests that share prefixes, at limits 1 to 8, the delivered index answers
// has and when, and walks its digests, exactly as the map and order slice it
// replaced. One case starts the window's positions just below 2³², so they
// wrap while it runs.
func TestDeliveredIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 300)
		rng.Read(ops)
		runDelivered(t, 0, 1+trial%8, ops)
	}
	t.Run("positions wrap", func(t *testing.T) {
		ops := make([]byte, 600)
		rng.Read(ops)
		for i := range ops[:200] {
			ops[i] &^= 0x80 // adds first, so positions pass 2³² early
		}
		runDelivered(t, math.MaxUint32-70, 8, ops)
		runWindow(t, math.MaxUint32-70, 8, ops)
	})
}

// TestDigestWindowEvictsOwnerBeforeTwin: when the digest whose table slot
// starts a probe run leaves, its younger twin — a digest of the same home
// slot, one slot further on — shifts back into that slot and is still found;
// the evicted owner is not.
func TestDigestWindowEvictsOwnerBeforeTwin(t *testing.T) {
	owner, other := windowDigest(1, 1), windowDigest(2, 1)
	var w digestWindow[struct{}]
	if !w.add(owner, struct{}{}, 3) {
		t.Fatal("add refused the first digest")
	}
	home := w.home(owner)
	twin := owner
	for suffix := 2; twin == owner || w.home(twin) != home; suffix++ {
		if suffix > 255 {
			t.Fatal("no digest of the pool shares the owner's home slot")
		}
		twin = windowDigest(1, byte(suffix))
	}
	for _, d := range []crypto.Digest{twin, other} {
		if !w.add(d, struct{}{}, 3) {
			t.Fatalf("add(%x) refused a new digest", d[:5])
		}
	}
	next := (home + 1) & (len(w.table) - 1)
	if w.at(w.origin+w.table[next]-1) != twin {
		t.Fatalf("the twin is not in the slot after its home: table %v", w.table)
	}
	if w.add(twin, struct{}{}, 3) {
		t.Fatal("a digest past its home slot was added twice")
	}
	w.add(windowDigest(3, 1), struct{}{}, 3) // evicts the owner
	if w.has(owner) || !w.has(twin) {
		t.Fatalf("after the owner's eviction: has(owner) = %v, has(twin) = %v", w.has(owner), w.has(twin))
	}
	if w.table[home] == 0 || w.at(w.origin+w.table[home]-1) != twin {
		t.Fatalf("the twin did not take the owner's slot: table %v", w.table)
	}
	var got []crypto.Digest
	for d := range w.all() {
		got = append(got, d)
	}
	if !slices.Equal(got, []crypto.Digest{twin, other, windowDigest(3, 1)}) {
		t.Fatalf("window order after the eviction: %x", got)
	}
}

// TestDigestWindowRebasesBeforeOffsetWraps: a table slot holds a position's
// offset from the table's origin plus one, and zero marks a free slot, so an
// offset of 2³²−1 cannot be stored. Without a rebuild the origin stays put
// while the window moves on; here it is moved back until the next digest's
// offset is 2³²−1, and adding that digest must rebase the table first.
func TestDigestWindowRebasesBeforeOffsetWraps(t *testing.T) {
	pool := windowPool()
	var w digestWindow[struct{}]
	var ref refWindow
	for _, d := range pool[:3] {
		w.add(d, struct{}{}, 8)
		ref.add(d, 8)
	}
	newOrigin := w.base + uint32(w.n) + 1 // the next position's offset is then 2³²−1
	for i, v := range w.table {
		if v != 0 {
			w.table[i] = w.origin + v - 1 - newOrigin + 1
		}
	}
	w.origin = newOrigin
	checkWindow(t, 0, &w, ref.q, ref.get, pool)
	for i, d := range pool[3:6] {
		if !w.add(d, struct{}{}, 8) {
			t.Fatalf("add(%x) refused a new digest", d[:5])
		}
		ref.add(d, 8)
		checkWindow(t, i+1, &w, ref.q, ref.get, pool)
	}
	if w.origin != w.base {
		t.Errorf("origin %d, want the table rebased at base %d", w.origin, w.base)
	}
}

// TestDigestWindowBytesPerDigest: filled to their bound, the dedup window
// holds at most 42 B of heap per digest and the delivered index, its payloads
// gone, at most 52 B: 32 B of digest, 8 B of delivery time (its chunk fills a
// 2 688 B size class, 2 B more per digest), and 8 B of index, since 8 192
// digests fill half of a table of 16 384 four-byte slots. A map keyed by the
// full digest plus a FIFO slice held 68 B and 128 B; a map keyed by the
// digest's 4-byte prefix, with an overflow map for the prefixes shared, held
// 50.8 B and 60.7 B.
func TestDigestWindowBytesPerDigest(t *testing.T) {
	digest := func(i int) crypto.Digest { return crypto.HashUint64(crypto.Digest{}, uint64(i)) }
	// The least of three fills: goroutines other tests left running allocate
	// too, and only ever add to a fill's count. Two collections before each
	// fill empty the sync.Pool victim caches, which would otherwise be freed
	// during it.
	perDigest := func(fill func() any) float64 {
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			kept := fill()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(kept)
			least = min(least, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/8192)
		}
		return least
	}
	applied := perDigest(func() any {
		st := &groupState{}
		for i := range maxAppliedOps {
			st.markAppliedOp(digest(i))
		}
		return st
	})
	delivered := perDigest(func() any {
		x := &deliveredIndex{}
		for i := range maxSeen {
			x.add(digest(i), nil, time.Duration(i))
		}
		x.trim(maxSeen)
		return x
	})
	t.Logf("dedup window %.1f B per digest, delivered index %.1f B per digest", applied, delivered)
	if applied > 42 {
		t.Errorf("the dedup window holds %.1f B per digest at its bound, want at most 42", applied)
	}
	if delivered > 52 {
		t.Errorf("the delivered index holds %.1f B per digest at its bound, want at most 52", delivered)
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
		runWindow(t, 0, 1+int(data[0]%8), data[1:])
	})
}

// FuzzDeliveredIndex: the first byte picks the limit, the second where the
// window's positions start, a few steps below 2³² when its high bit is set;
// every other byte is one delivery or lookup on the crafted pool. The index
// must match the reference after every step.
func FuzzDeliveredIndex(f *testing.F) {
	f.Add([]byte{3, 0, 6, 7, 12, 0x86, 13, 14, 0x87, 6})
	f.Add([]byte{1, 0x83, 0, 6, 0, 6, 12, 0x80, 0x86})
	f.Add([]byte{8, 0x85, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 0x80, 0x91})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var base uint32
		if data[1]&0x80 != 0 {
			base = math.MaxUint32 - uint32(data[1]&0x7f)
		}
		runDelivered(t, base, 1+int(data[0]%8), data[2:])
	})
}
