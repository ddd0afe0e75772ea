// Package stats provides the statistics used by the evaluation harness:
// Pearson's χ² uniformity test (the Fig. 4 guideline methodology) and
// latency distribution summaries (percentiles, mean, max).
package stats

import (
	"math"
	"sort"
	"time"
)

// ChiSquareUniform computes Pearson's χ² statistic for observed counts
// against the uniform distribution, and the p-value (via the regularized
// upper incomplete gamma function Q(k/2, x/2)).
func ChiSquareUniform(counts []int) (chi2, pValue float64) {
	n := 0
	for _, c := range counts {
		n += c
	}
	k := len(counts)
	if k < 2 || n == 0 {
		return 0, 1
	}
	expected := float64(n) / float64(k)
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	dof := float64(k - 1)
	return chi2, GammaQ(dof/2, chi2/2)
}

// UniformAtConfidence reports whether the χ² test CANNOT reject uniformity
// at the given confidence level (paper: 0.99 ⇒ reject when p < 0.01).
func UniformAtConfidence(counts []int, confidence float64) bool {
	_, p := ChiSquareUniform(counts)
	return p >= 1-confidence
}

// GammaQ is the regularized upper incomplete gamma function Q(a, x)
// (Numerical Recipes: series for x < a+1, continued fraction otherwise).
func GammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return 1
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQCF(a, x)
}

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-14 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQCF(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// Durations summarizes a sample of latencies.
type Durations []time.Duration

// Sorted returns an ascending copy.
func (d Durations) Sorted() Durations {
	out := append(Durations(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the p-th percentile (0..100) of the sample.
func (d Durations) Percentile(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := d.Sorted()
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Mean returns the sample mean.
func (d Durations) Mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

// Max returns the sample maximum.
func (d Durations) Max() time.Duration {
	var m time.Duration
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	return m
}
