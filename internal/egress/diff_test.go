package egress

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// scheduler is what the shipped Scheduler and the reference model have in
// common: everything an owner calls.
type scheduler interface {
	EnqueueGroup(src, dst group.Composition, it group.BatchItem, deferred bool)
	EnqueueGroupWith(src, dst group.Composition, it group.BatchItem, deferred bool, expires time.Duration)
	EnqueueNodeWith(src group.Composition, to ids.NodeID, it group.BatchItem, class Class, expires time.Duration) error
	FlushAll()
	FlushDeferred()
	OnTimer()
	Pending() (dests, items int)
}

// diffEvent is one thing a scheduler did to its owner: a Flush or an Arm call,
// with the time it happened at. Comparable, so two traces are compared with
// slices.Equal.
type diffEvent struct {
	what     string // "flush" or "arm"
	at       time.Duration
	src, dst group.Key
	members  int // src and dst member counts: a flush carries the whole composition
	node     ids.NodeID
	items    string // the sequence numbers of the flushed items, in order
	delay    time.Duration
}

// diffSide is one scheduler under test with the trace of what it did.
type diffSide struct {
	s     scheduler
	trace []diffEvent
}

// diffWorld drives the shipped scheduler and the reference model through one
// seeded schedule and compares them after every step.
type diffWorld struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	cfg  Config
	now  time.Duration

	got, want diffSide
	ship      *Scheduler
	ref       *refScheduler
	timers    []time.Duration      // armed deadlines not yet fired (from the shipped side)
	levels    map[ids.NodeID]Level // the last transition the reference reported, per node

	src       group.Composition
	groups    int  // group destinations to draw from
	nodes     int  // node destinations to draw from
	deferredP int  // percent of group enqueues that are deferred
	slow      bool // the clock crawls: every arrival entry stays hot
	seq       uint64

	pressure, arms, peakArr int
}

func newDiffWorld(t *testing.T, seed int64, dests int) *diffWorld {
	w := &diffWorld{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), now: time.Second,
		src: comp(1, 1), groups: dests, nodes: max(dests/4, 3), levels: map[ids.NodeID]Level{}}
	pick := func(v ...int) int { return v[w.rng.Intn(len(v))] }
	w.cfg = Config{
		MaxBatch:   pick(1, 2, 3, 8, 64),
		MaxBytes:   pick(200, 1<<20),
		MaxWindow:  time.Duration(pick(0, 5, 5, 40, 40)) * time.Millisecond,
		Limit:      pick(1, 2, 3, 8, 32),
		LimitBytes: pick(0, 300, 2048),
		Now:        func() time.Duration { return w.now },
	}
	w.deferredP = pick(0, 100, 50)
	wire := func(side *diffSide, shipped bool) Config {
		c := w.cfg
		c.Arm = func(d time.Duration) {
			side.trace = append(side.trace, diffEvent{what: "arm", at: w.now, delay: d})
			if shipped {
				w.timers = append(w.timers, w.now+d)
				w.arms++
			}
		}
		c.Flush = func(src, dst group.Composition, node ids.NodeID, items []group.BatchItem) {
			var seqs []byte
			for _, it := range items {
				seqs = strconv.AppendUint(append(seqs, ' '), binary.BigEndian.Uint64(it.Payload), 10)
			}
			side.trace = append(side.trace, diffEvent{what: "flush", at: w.now, src: src.Key(), dst: dst.Key(),
				members: len(src.Members)<<8 | len(dst.Members), node: node, items: string(seqs)})
		}
		return c
	}
	w.ship = New(wire(&w.got, true))
	w.ref = newRefScheduler(refConfig{Config: wire(&w.want, false), OnPressure: func(node ids.NodeID, level Level) {
		w.levels[node] = level
		w.pressure++
	}})
	w.got.s, w.want.s = w.ship, w.ref
	return w
}

// item returns a fresh item of the given payload size (at least the 8 bytes
// of its sequence number, which is how a flush trace names it).
func (w *diffWorld) item(size int) group.BatchItem {
	w.seq++
	payload := make([]byte, max(size, 8))
	binary.BigEndian.PutUint64(payload, w.seq)
	return group.BatchItem{Kind: 1, MsgID: crypto.HashUint64(crypto.Digest{}, w.seq), Payload: payload}
}

// expiry draws an absolute expiry: none, already past at the next flush, or far off.
func (w *diffWorld) expiry() time.Duration {
	switch w.rng.Intn(4) {
	case 0:
		return w.now + time.Duration(w.rng.Intn(4000))*time.Microsecond
	case 1:
		return w.now + time.Hour
	default:
		return 0
	}
}

// both runs one call on both schedulers and compares everything observable.
func (w *diffWorld) both(what string, call func(s scheduler) error) {
	w.t.Helper()
	errGot, errWant := call(w.got.s), call(w.want.s)
	if errGot != errWant {
		w.t.Fatalf("seed %d, %s at %v: returned %v, the reference %v", w.seed, what, w.now, errGot, errWant)
	}
	if !slices.Equal(w.got.trace, w.want.trace) {
		n := 0
		for n < len(w.got.trace) && n < len(w.want.trace) && w.got.trace[n] == w.want.trace[n] {
			n++
		}
		w.t.Fatalf("seed %d, %s at %v: traces part at event %d:\n got  %+v\n want %+v", w.seed, what, w.now, n,
			w.got.trace[n:], w.want.trace[n:])
	}
	w.got.trace, w.want.trace = w.got.trace[:0], w.want.trace[:0]
	gd, gi := w.got.s.Pending()
	wd, wi := w.want.s.Pending()
	if gd != wd || gi != wi {
		w.t.Fatalf("seed %d, %s at %v: Pending %d/%d, the reference %d/%d", w.seed, what, w.now, gd, gi, wd, wi)
	}
	if g, r := w.ship.Snapshot(), w.ref.Snapshot().shipped(); !reflect.DeepEqual(g, r) {
		w.t.Fatalf("seed %d, %s at %v: Snapshot\n got  %+v\n want %+v", w.seed, what, w.now, g, r)
	}
	for node := ids.NodeID(1000); node < ids.NodeID(1000+w.nodes); node++ {
		if got, want := w.ship.Level(node), w.levels[node]; got != want {
			w.t.Fatalf("seed %d, %s at %v: Level(%v) = %v, the reference last reported %v", w.seed, what, w.now, node, got, want)
		}
	}
	if len(w.ship.arr) != len(w.ref.arr) {
		w.t.Fatalf("seed %d, %s at %v: %d arrival entries, the reference %d", w.seed, what, w.now, len(w.ship.arr), len(w.ref.arr))
	}
	w.peakArr = max(w.peakArr, len(w.ship.arr))
}

// advance moves the clock forward by d, firing OnTimer at every armed
// deadline on the way.
func (w *diffWorld) advance(d time.Duration) {
	target := w.now + d
	for len(w.timers) > 0 {
		next := slices.Min(w.timers)
		if next > target {
			break
		}
		w.timers = slices.DeleteFunc(w.timers, func(t time.Duration) bool { return t == next })
		w.now = max(w.now, next)
		w.both("OnTimer", func(s scheduler) error { s.OnTimer(); return nil })
	}
	w.now = target
}

func (w *diffWorld) step() {
	switch r := w.rng.Intn(100); {
	case r < 40:
		dst := comp(ids.GroupID(10+w.rng.Intn(w.groups)), 1)
		it, deferred, expires := w.item(w.rng.Intn(120)), w.rng.Intn(100) < w.deferredP, w.expiry()
		if expires == 0 && w.rng.Intn(2) == 0 {
			w.both("EnqueueGroup", func(s scheduler) error { s.EnqueueGroup(w.src, dst, it, deferred); return nil })
			return
		}
		w.both("EnqueueGroupWith", func(s scheduler) error {
			s.EnqueueGroupWith(w.src, dst, it, deferred, expires)
			return nil
		})
	case r < 70:
		to := ids.NodeID(1000 + w.rng.Intn(w.nodes))
		sizes := []int{8, 8, 40, 120}
		if lb := w.cfg.LimitBytes; lb > 0 {
			// Around the byte bound: one item that just fits an empty queue, one
			// that just does not, and ones of which two or three fit.
			fit := lb - group.BatchWireOverhead
			sizes = append(sizes, fit-1, fit, fit+1, fit/2, fit/3)
		}
		it := w.item(sizes[w.rng.Intn(len(sizes))])
		class, expires := Class(w.rng.Intn(3)), w.expiry()
		w.both("EnqueueNodeWith", func(s scheduler) error { return s.EnqueueNodeWith(w.src, to, it, class, expires) })
	case r < 75:
		// The source composition changes under open batches: an epoch bump, or
		// (rarely) a move to another vgroup.
		if w.rng.Intn(5) == 0 {
			w.src = comp(w.src.GroupID+1, w.src.Epoch)
		} else {
			w.src = comp(w.src.GroupID, w.src.Epoch+1)
		}
	case r < 90:
		steps := []time.Duration{0, 50 * time.Microsecond, 400 * time.Microsecond, time.Millisecond,
			3 * time.Millisecond, w.cfg.MaxWindow, 20 * time.Millisecond, time.Second}
		if w.slow {
			steps = steps[:2]
		}
		w.advance(steps[w.rng.Intn(len(steps))])
	case r < 93:
		w.both("spurious OnTimer", func(s scheduler) error { s.OnTimer(); return nil })
	case r < 97:
		w.both("FlushDeferred", func(s scheduler) error { s.FlushDeferred(); return nil })
	default:
		w.both("FlushAll", func(s scheduler) error { s.FlushAll(); return nil })
	}
}

// TestSchedulerMatchesReference drives the shipped Scheduler and the
// reference model (ref_test.go) through seeded random schedules — deferred and
// windowed group enqueues with and without expiry, node enqueues of all three
// classes with TTLs and sizes around LimitBytes, source-epoch changes and group
// moves, clock advances with OnTimer at every armed deadline, spurious OnTimer
// calls, FlushDeferred and FlushAll — and requires the same Flush calls (source,
// destination, node, items, time, order), Arm delays, returned errors, Pending
// and Snapshot after every step, and Level of every node destination equal to
// the last transition the reference's OnPressure reported. Every two-hundredth
// schedule spreads its traffic over more destinations than maxArrivalEntries
// so that pruneArrivals runs, once with a slow clock (every entry hot: the
// reset pass) and once with a fast one (the stale pass). Limit > 0 throughout:
// the reference's "Limit <= 0 turns flow control off" fork is gone from the
// shipped scheduler, as are its pressure hook and ArrivalGap (ref_test.go).
func TestSchedulerMatchesReference(t *testing.T) {
	schedules := 1200
	if testing.Short() {
		schedules = 200
	}
	var total Stats
	var pressure, arms int
	for seed := 0; seed < schedules; seed++ {
		dests, steps := 4, 300
		if seed%200 == 199 {
			dests, steps = 3*maxArrivalEntries, 8*maxArrivalEntries
		}
		w := newDiffWorld(t, int64(seed), dests)
		w.slow = seed%400 == 199
		for i := 0; i < steps; i++ {
			w.step()
		}
		w.both("final FlushAll", func(s scheduler) error { s.FlushAll(); return nil })
		if dests > maxArrivalEntries && w.peakArr < maxArrivalEntries {
			t.Fatalf("seed %d: the wide schedule peaked at %d arrival entries: pruneArrivals never ran", seed, w.peakArr)
		}
		st := w.ship.Snapshot()
		total.Enqueued += st.Enqueued
		total.Immediate += st.Immediate
		total.Flushes += st.Flushes
		total.Items += st.Items
		total.DroppedOverflow += st.DroppedOverflow
		total.DroppedExpired += st.DroppedExpired
		pressure += w.pressure
		arms += w.arms
	}
	t.Logf("%d schedules: %+v, %d pressure transitions, %d timers", schedules, total, pressure, arms)
	if total.Immediate == 0 || total.Flushes == 0 || total.DroppedOverflow == 0 || total.DroppedExpired == 0 ||
		pressure == 0 || arms == 0 {
		t.Error("a branch of the scheduler went unvisited: the comparison above proves less than it says")
	}
}
