package atum_test

// One benchmark per table and figure of the paper's evaluation (§6), at
// smoke scale; cmd/atum-bench runs the same experiments at paper-like scale.
// Benchmarks report the regenerated rows through b.Log (-v) and custom
// metrics where meaningful.

import (
	"testing"
	"time"

	"atum/internal/experiment"
	"atum/internal/smr"
)

func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.Table1().String()
	}
}

func BenchmarkRobustnessModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Robustness([]int{200, 1000, 5000}, []int{3, 4, 5, 6, 7}, 0.06, smr.ModeSync)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig4WalkUniformity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig4([]int{8, 32}, []int{2, 4, 6}, 10, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig6Growth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig6(smr.ModeSync, 16, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig7Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig7(smr.ModeSync, []int{10}, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig8Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig8(smr.ModeSync, 12, 0, 3, 1500*time.Millisecond, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig8LatencyByzantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig8(smr.ModeSync, 12, 1, 3, 1500*time.Millisecond, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig9Read(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig9([]int{2, 8}, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig10Corrupt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig10(4, []int{8, 12}, 4, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig11CorruptLarger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig10(4, []int{8, 12}, 4, int64(i+2))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig12Stream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig12(8, 5, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig13Exchanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig13(14, []int{8, 24}, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}
