package core

import (
	"encoding/binary"
	"iter"
	"slices"

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
// Index. idx maps a digest's first 4 bytes to the position of the oldest
// digest of that prefix in the window. Positions are uint32 and wrap: each
// is read as its offset from base, the position of the oldest digest. A
// digest whose prefix another one in the window already owns goes to over,
// and at the owner's eviction the oldest twin takes its index entry. Every
// hit compares the full 32-byte digest, and nothing in the window iterates a
// map, so every replica answers and orders identically.
//
// The 4-byte prefix. Go seeds every map's hash per map, so no sender can aim
// digests at one bucket of idx. A shared prefix costs one more exact compare
// per lookup of that prefix. Making k digests share one prefix takes about
// k·2³² hashes, and slows only the lookups of that prefix.
type digestWindow[V any] struct {
	chunks []*windowChunk[V]   // oldest first; chunks[0] holds position base
	base   uint32              // position of the oldest digest
	n      int                 // digests held
	idx    map[uint32]uint32   // prefix → position of its oldest digest
	over   map[uint32][]uint32 // prefix → positions of the younger ones, oldest first
}

func digestPrefix(d crypto.Digest) uint32 { return binary.LittleEndian.Uint32(d[:4]) }

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

// find returns the position of d, false when d is not in the window.
func (w *digestWindow[V]) find(d crypto.Digest) (uint32, bool) {
	p := digestPrefix(d)
	if pos, ok := w.idx[p]; !ok || w.at(pos) == d {
		return pos, ok
	}
	i := slices.IndexFunc(w.over[p], func(pos uint32) bool { return w.at(pos) == d })
	if i < 0 {
		return 0, false
	}
	return w.over[p][i], true
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
// whether it did. Past limit digests, the oldest leaves.
func (w *digestWindow[V]) add(d crypto.Digest, v V, limit int) bool {
	if w.has(d) {
		return false
	}
	if w.idx == nil {
		w.idx = make(map[uint32]uint32)
	}
	p, pos := digestPrefix(d), w.base+uint32(w.n)
	if _, taken := w.idx[p]; taken {
		if w.over == nil {
			w.over = make(map[uint32][]uint32)
		}
		w.over[p] = append(w.over[p], pos)
	} else {
		w.idx[p] = pos
	}
	if k := w.n + int(w.base%windowChunkSlots); k/windowChunkSlots == len(w.chunks) {
		w.chunks = append(w.chunks, new(windowChunk[V]))
	}
	c, i := w.slot(pos)
	c.digests[i], c.values[i] = d, v
	w.n++
	if w.n > limit {
		w.evict()
	}
	return true
}

// evict drops the oldest digest. It owns its prefix's index entry, since an
// owner is always the oldest of its prefix; the oldest twin takes it over.
func (w *digestWindow[V]) evict() {
	c, i := w.slot(w.base)
	old := digestPrefix(c.digests[i])
	switch twins := w.over[old]; len(twins) {
	case 0:
		delete(w.idx, old)
	case 1:
		w.idx[old] = twins[0]
		delete(w.over, old)
	default:
		w.idx[old], w.over[old] = twins[0], twins[1:]
	}
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
