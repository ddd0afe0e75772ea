package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestChiSquareUniformAcceptsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 64)
	for i := 0; i < 64*100; i++ {
		counts[rng.Intn(64)]++
	}
	if !UniformAtConfidence(counts, 0.99) {
		chi, p := ChiSquareUniform(counts)
		t.Errorf("uniform sample rejected: chi2=%.1f p=%.4f", chi, p)
	}
}

func TestChiSquareRejectsSkewed(t *testing.T) {
	counts := make([]int, 64)
	for i := range counts {
		counts[i] = 10
	}
	counts[0] = 2000 // extreme concentration
	if UniformAtConfidence(counts, 0.99) {
		t.Error("grossly skewed sample accepted as uniform")
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	if _, p := ChiSquareUniform(nil); p != 1 {
		t.Error("nil counts should give p=1")
	}
	if _, p := ChiSquareUniform([]int{5}); p != 1 {
		t.Error("single bucket should give p=1")
	}
	if _, p := ChiSquareUniform([]int{0, 0}); p != 1 {
		t.Error("empty sample should give p=1")
	}
}

func TestGammaQKnownValues(t *testing.T) {
	// Q(0.5, x) = erfc(sqrt(x)); check a couple of points.
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erfc(math.Sqrt(x))
		got := GammaQ(0.5, x)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("GammaQ(0.5, %v) = %v, want %v", x, got, want)
		}
	}
	// Q(1, x) = exp(-x).
	for _, x := range []float64{0.5, 2, 10} {
		if got, want := GammaQ(1, x), math.Exp(-x); math.Abs(got-want) > 1e-9 {
			t.Errorf("GammaQ(1, %v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaQMonotonic(t *testing.T) {
	f := func(a8, x8, y8 uint8) bool {
		a := 0.5 + float64(a8%40)/4
		x := float64(x8%100) / 5
		y := x + float64(y8%100)/10 + 0.01
		return GammaQ(a, y) <= GammaQ(a, x)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentiles(t *testing.T) {
	var d Durations
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	if got := d.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := d.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := d.Max(); got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	if got := d.Mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	var d Durations
	if d.Percentile(50) != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Error("empty sample should give zeros")
	}
}
