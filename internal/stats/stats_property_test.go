package stats

// Property tests for the statistics substrate behind the Fig. 4 guideline
// (χ² uniformity) and the latency percentiles of Fig. 8.

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileWithinBoundsProperty(t *testing.T) {
	property := func(raw []uint32, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d := make(Durations, len(raw))
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i, v := range raw {
			d[i] = time.Duration(v)
			if d[i] < lo {
				lo = d[i]
			}
			if d[i] > hi {
				hi = d[i]
			}
		}
		p := float64(pRaw%101) / 100
		v := d.Percentile(p)
		return v >= lo && v <= hi
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneInP(t *testing.T) {
	property := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		d := make(Durations, len(raw))
		for i, v := range raw {
			d[i] = time.Duration(v)
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedDoesNotMutateReceiver(t *testing.T) {
	property := func(raw []uint32) bool {
		d := make(Durations, len(raw))
		for i, v := range raw {
			d[i] = time.Duration(v)
		}
		orig := append(Durations(nil), d...)
		s := d.Sorted()
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				return false
			}
		}
		for i := range d {
			if d[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquarePValueRange(t *testing.T) {
	property := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		counts := make([]int, len(raw))
		total := 0
		for i, v := range raw {
			counts[i] = int(v % 1000)
			total += counts[i]
		}
		if total == 0 {
			return true
		}
		_, p := ChiSquareUniform(counts)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareDetectsConcentration(t *testing.T) {
	// All mass on one cell out of many must always be rejected as uniform,
	// regardless of scale.
	for _, cells := range []int{4, 16, 64} {
		for _, mass := range []int{100, 10000} {
			counts := make([]int, cells)
			counts[0] = mass
			if UniformAtConfidence(counts, 0.99) {
				t.Fatalf("concentrated distribution (cells=%d mass=%d) accepted as uniform", cells, mass)
			}
		}
	}
}

func TestChiSquareAcceptsSampledUniform(t *testing.T) {
	// Genuinely uniform samples must be accepted nearly always. Use many
	// samples per cell so the test is far from the rejection boundary.
	rng := rand.New(rand.NewSource(42))
	rejected := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		counts := make([]int, 32)
		for i := 0; i < 32*200; i++ {
			counts[rng.Intn(32)]++
		}
		if !UniformAtConfidence(counts, 0.99) {
			rejected++
		}
	}
	// At confidence 0.99 the false-rejection rate is ~1%; 5 of 50 would be
	// a 10x excess.
	if rejected > 5 {
		t.Fatalf("uniform samples rejected %d/%d times", rejected, trials)
	}
}
