package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"atum"
)

// keyLen is the length of the key every benchmark payload starts with:
// [0:8] run nonce, [8:12] broadcast index, [12:16] payload length.
const keyLen = 16

// makePayloads returns count payloads of size bytes each: the 16-byte key
// followed by filler drawn from rng, so no two broadcasts share content the
// batch frame's dictionary could fold.
func makePayloads(rng *rand.Rand, nonce uint64, count, size int) [][]byte {
	if size < keyLen {
		size = keyLen
	}
	backing := make([]byte, count*size)
	rng.Read(backing)
	out := make([][]byte, count)
	for i := range out {
		p := backing[i*size : (i+1)*size : (i+1)*size]
		binary.BigEndian.PutUint64(p[0:8], nonce)
		binary.BigEndian.PutUint32(p[8:12], uint32(i))
		binary.BigEndian.PutUint32(p[12:16], uint32(size))
		out[i] = p
	}
	return out
}

// tracker records, for every (broadcast, node) pair, when the node delivered
// the broadcast, and checks each delivery as it happens. All bookkeeping
// lives in arrays allocated up front and indexed by the broadcast index the
// payload key carries. A node writes only its own column and its own
// counters, so the tcp workload's node goroutines share nothing.
type tracker struct {
	nonce    uint64
	payloads [][]byte
	cols     int     // node columns: initial members plus every possible joiner
	at       []int64 // [bcast*cols+node] delivery time in ns, +1 so 0 means "not delivered"
	pubAt    []int64 // [bcast] publish (sim) or due (tcp) time in ns; -1 until published
	refused  []bool  // [bcast] BroadcastWith returned an error
	perNode  []nodeCounters
}

// nodeCounters are one node's delivery counters, padded to a cache line so
// concurrent nodes do not false-share.
type nodeCounters struct {
	delivered int64
	duplicate int64 // a second Deliver of one broadcast at one node
	corrupt   int64 // payload differs from what was published
	foreign   int64 // payload that is not one of this run's broadcasts
	_         [4]int64
}

func newTracker(nonce uint64, payloads [][]byte, cols int) *tracker {
	t := &tracker{
		nonce:    nonce,
		payloads: payloads,
		cols:     cols,
		at:       make([]int64, len(payloads)*cols),
		pubAt:    make([]int64, len(payloads)),
		refused:  make([]bool, len(payloads)),
		perNode:  make([]nodeCounters, cols),
	}
	for i := range t.pubAt {
		t.pubAt[i] = -1
	}
	return t
}

// deliver is the body of every node's Deliver callback.
func (t *tracker) deliver(node int, d atum.Delivery, now int64) {
	c := &t.perNode[node]
	if len(d.Data) < keyLen || binary.BigEndian.Uint64(d.Data[0:8]) != t.nonce {
		c.foreign++
		return
	}
	b := int(binary.BigEndian.Uint32(d.Data[8:12]))
	if b >= len(t.payloads) {
		c.foreign++
		return
	}
	if !bytes.Equal(d.Data, t.payloads[b]) {
		c.corrupt++
		return
	}
	slot := &t.at[b*t.cols+node]
	if *slot != 0 {
		c.duplicate++
		return
	}
	*slot = now + 1
	c.delivered++
}

// deliverTraced is deliver inside a bcast.deliver span on the node's trace
// lane; a nil lane (untraced run) just delivers.
func (t *tracker) deliverTraced(ln *lane, node int, d atum.Delivery, now int64) {
	if ln == nil {
		t.deliver(node, d, now)
		return
	}
	key := -1
	if len(d.Data) >= keyLen {
		key = int(binary.BigEndian.Uint32(d.Data[8:12]))
	}
	ln.callbacks++
	ln.begin(spanDeliver, key)
	t.deliver(node, d, now)
	ln.end(spanDeliver)
}

// trackerTotals sums the per-node counters.
type trackerTotals struct {
	delivered, duplicate, corrupt, foreign int64
}

func (t *tracker) totals() trackerTotals {
	var s trackerTotals
	for i := range t.perNode {
		c := &t.perNode[i]
		s.delivered += c.delivered
		s.duplicate += c.duplicate
		s.corrupt += c.corrupt
		s.foreign += c.foreign
	}
	return s
}

// latencies returns publish→deliver latencies in ns over the attempted
// broadcasts and the eligible node columns, in broadcast order; offsets[i]
// is where the i-th attempted broadcast's samples start (one more entry
// closes the last). It also returns how many of those pairs were delivered
// and how many were expected.
func (t *tracker) latencies(eligible []bool) (lat []int64, offsets []int, delivered, expected int64) {
	nElig := 0
	for _, e := range eligible {
		if e {
			nElig++
		}
	}
	lat = make([]int64, 0, len(t.payloads)*nElig)
	for b := range t.payloads {
		if t.pubAt[b] < 0 {
			continue // never attempted
		}
		offsets = append(offsets, len(lat))
		expected += int64(nElig)
		for n, e := range eligible {
			if !e {
				continue
			}
			if at := t.at[b*t.cols+n]; at != 0 {
				lat = append(lat, at-1-t.pubAt[b])
			}
		}
	}
	offsets = append(offsets, len(lat))
	return lat, offsets, int64(len(lat)), expected
}
