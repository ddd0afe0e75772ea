package core

import (
	"hash/maphash"
	"iter"

	"atum/internal/crypto"
)

// windowChunkSlots is how many digests one chunk of a digestWindow holds.
const windowChunkSlots = 64

// windowChunk holds the digests, and their values, of 64 consecutive
// positions. The values come first: a zero-size last field would pad the
// chunk past the 2 KiB size class.
type windowChunk[V any] struct {
	values  [windowChunkSlots]V
	digests [windowChunkSlots]crypto.Digest
}

// digestWindow is a FIFO-bounded set of digests that remembers their order
// and one value per digest. Both the replicated dedup window
// (groupState.applied) and the delivered index (deliveredIndex) are one.
//
// Storage. The digest added at position pos sits in slot pos mod 64 of a
// fixed 64-slot chunk; the chunks are oldest first, and a chunk is freed
// whole once its last slot has left, so the slack is under two chunks at
// any fill.
//
// Index. table is an open-addressed hash table of positions: a power of two
// of uint32 slots, at most half of them used, probed linearly from the slot
// the digest's hash picks. A used slot holds its digest's position as the
// offset from origin plus one, so zero marks a free slot; origin moves to
// base whenever the table is rebuilt and before an offset would wrap. Every
// hit compares the full 32-byte digest, and an eviction shifts the digests
// that probed past its slot back (backward-shift deletion), so no tombstones
// pile up. Nothing in the window iterates the table in an order it reports,
// so every replica answers and orders identically.
//
// The hash is keyed by a seed from hash/maphash drawn per window, not by the
// simulation's RNG: no sender can aim digests at one run of slots, and a
// seeded run replays whatever the seeds.
type digestWindow[V any] struct {
	chunks []*windowChunk[V] // oldest first; chunks[0] holds position base
	base   uint32            // position of the oldest digest
	n      int               // digests held
	table  []uint32          // position − origin + 1 of each digest held; 0: free
	origin uint32
	seed   maphash.Seed
}

// slot returns the chunk and slot of position pos, which the window holds.
func (w *digestWindow[V]) slot(pos uint32) (*windowChunk[V], int) {
	k := int(pos-w.base) + int(w.base%windowChunkSlots)
	return w.chunks[k/windowChunkSlots], k % windowChunkSlots
}

// at returns the digest at position pos.
func (w *digestWindow[V]) at(pos uint32) crypto.Digest {
	c, i := w.slot(pos)
	return c.digests[i]
}

// home returns the table slot d's probe starts at.
func (w *digestWindow[V]) home(d crypto.Digest) int {
	return int(maphash.Bytes(w.seed, d[:]) & uint64(len(w.table)-1))
}

// find returns the position of d, false when d is not in the window.
func (w *digestWindow[V]) find(d crypto.Digest) (uint32, bool) {
	if w.n == 0 {
		return 0, false
	}
	mask := len(w.table) - 1
	for i := w.home(d); w.table[i] != 0; i = (i + 1) & mask {
		if pos := w.origin + w.table[i] - 1; w.at(pos) == d {
			return pos, true
		}
	}
	return 0, false
}

// has reports whether d is in the window.
func (w *digestWindow[V]) has(d crypto.Digest) bool {
	_, ok := w.find(d)
	return ok
}

// get returns the value stored with d, false when d is not in the window.
func (w *digestWindow[V]) get(d crypto.Digest) (V, bool) {
	pos, ok := w.find(d)
	if !ok {
		var zero V
		return zero, false
	}
	c, i := w.slot(pos)
	return c.values[i], true
}

// len returns the number of digests in the window.
func (w *digestWindow[V]) len() int { return w.n }

// add appends d with v unless d is already in the window, and reports
// whether it did. At limit digests, limit at least 1, the oldest leaves
// first.
func (w *digestWindow[V]) add(d crypto.Digest, v V, limit int) bool {
	if w.has(d) {
		return false
	}
	if w.n >= limit {
		w.evict()
	}
	if 2*(w.n+1) > len(w.table) {
		w.rebuild(max(8, 2*len(w.table)))
	}
	pos := w.base + uint32(w.n)
	if pos-w.origin+1 == 0 {
		w.rebuild(len(w.table)) // the offset would wrap: rebase it
	}
	if k := w.n + int(w.base%windowChunkSlots); k/windowChunkSlots == len(w.chunks) {
		w.chunks = append(w.chunks, new(windowChunk[V]))
	}
	c, i := w.slot(pos)
	c.digests[i], c.values[i] = d, v
	w.n++
	w.index(d, pos)
	return true
}

// index enters position pos, where d sits, in the table's first free slot
// from d's home.
func (w *digestWindow[V]) index(d crypto.Digest, pos uint32) {
	mask := len(w.table) - 1
	i := w.home(d)
	for w.table[i] != 0 {
		i = (i + 1) & mask
	}
	w.table[i] = pos - w.origin + 1
}

// rebuild makes a table of size slots, rebased at base, and indexes the
// window's digests in it.
func (w *digestWindow[V]) rebuild(size int) {
	if w.table == nil {
		w.seed = maphash.MakeSeed()
	}
	w.table, w.origin = make([]uint32, size), w.base
	for k := range w.n {
		pos := w.base + uint32(k)
		w.index(w.at(pos), pos)
	}
}

// evict drops the oldest digest. Its table slot is freed by shifting back
// each digest of the probe run after it that may sit there, so every digest
// stays reachable from its home without passing a free slot.
func (w *digestWindow[V]) evict() {
	c, i := w.slot(w.base)
	mask := len(w.table) - 1
	free := w.home(c.digests[i])
	for w.table[free] != w.base-w.origin+1 {
		free = (free + 1) & mask
	}
	for j := (free + 1) & mask; w.table[j] != 0; j = (j + 1) & mask {
		// The digest at j may move to free unless its home lies after free,
		// up to j, along the run.
		if home := w.home(w.at(w.origin + w.table[j] - 1)); (j-home)&mask >= (j-free)&mask {
			w.table[free] = w.table[j]
			free = j
		}
	}
	w.table[free] = 0
	var zero V
	c.digests[i], c.values[i] = crypto.Digest{}, zero
	w.base++
	w.n--
	if i == windowChunkSlots-1 || w.n == 0 {
		w.chunks[0] = nil
		w.chunks = w.chunks[1:]
	}
}

// all yields the window's digests and values, oldest first.
func (w *digestWindow[V]) all() iter.Seq2[crypto.Digest, V] {
	return func(yield func(crypto.Digest, V) bool) {
		for k := range w.n {
			c, i := w.slot(w.base + uint32(k))
			if !yield(c.digests[i], c.values[i]) {
				return
			}
		}
	}
}
