package experiment

// Smoke-scale integration tests: every experiment function that regenerates
// a paper table or figure runs end-to-end at reduced scale and must produce
// a well-formed, non-degenerate table. These are the same code paths
// cmd/atum-bench drives at paper scale, so a regression in any layer of the
// stack (engine, overlay, group, SMR, applications) surfaces here.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"atum/internal/smr"
)

func requireTable(t *testing.T, tb Table, wantRows int) {
	t.Helper()
	if tb.Title == "" {
		t.Fatal("table has no title")
	}
	if len(tb.Header) == 0 {
		t.Fatal("table has no header")
	}
	if len(tb.Rows) < wantRows {
		t.Fatalf("table has %d rows, want >= %d:\n%s", len(tb.Rows), wantRows, tb)
	}
	for i, r := range tb.Rows {
		if len(r) != len(tb.Header) {
			t.Fatalf("row %d has %d cells, header has %d:\n%s", i, len(r), len(tb.Header), tb)
		}
	}
	if s := tb.String(); !strings.Contains(s, tb.Title) {
		t.Fatal("String() does not render the title")
	}
}

func cell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	raw := tb.Rows[row][col]
	raw = strings.TrimSuffix(raw, "%")
	raw = strings.TrimSuffix(raw, "s")
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q is not numeric: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestTable1(t *testing.T) {
	tb := Table1()
	requireTable(t, tb, 5)
}

func TestRobustnessTable(t *testing.T) {
	tb := Robustness([]int{200, 1000, 5000}, []int{3, 5, 7}, 0.15, smr.ModeAsync)
	requireTable(t, tb, 3)
	// §3.1's claim: bigger k buys robustness at any N — every row must be
	// nondecreasing in k; and at fixed small k robustness decays with N.
	for r := range tb.Rows {
		prev := -1.0
		for c := 1; c < len(tb.Header); c++ {
			v := cell(t, tb, r, c)
			if v < prev-1e-9 {
				t.Fatalf("row %v not nondecreasing in k", tb.Rows[r])
			}
			prev = v
		}
	}
	if first, last := cell(t, tb, 0, 1), cell(t, tb, len(tb.Rows)-1, 1); last >= first {
		t.Fatalf("small k should decay with N: N=200 %.4f vs N=5000 %.4f", first, last)
	}
}

func TestFig4Smoke(t *testing.T) {
	tb := Fig4([]int{8, 32}, []int{2, 4, 6}, 12, 1)
	requireTable(t, tb, 2)
	// Denser graphs mix faster, so the sparsest configuration (hc=2) needs
	// the longest walks. χ² at smoke scale is noisy, so only the ends of
	// each row are compared (with slack), not full monotonicity.
	for r := range tb.Rows {
		for c := 1; c < len(tb.Header); c++ {
			if v := int(cell(t, tb, r, c)); v <= 0 {
				t.Fatalf("rwl must be positive, got %d in row %v", v, tb.Rows[r])
			}
		}
		first := int(cell(t, tb, r, 1))
		last := int(cell(t, tb, r, len(tb.Header)-1))
		if last > first+2 {
			t.Fatalf("rwl at hc=6 (%d) much larger than at hc=2 (%d): %v", last, first, tb.Rows[r])
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	tb := Fig6(smr.ModeSync, 12, 1)
	requireTable(t, tb, 1)
	// The system must actually have grown to the target.
	last := tb.Rows[len(tb.Rows)-1]
	n, err := strconv.Atoi(last[1])
	if err != nil || n < 12 {
		t.Fatalf("growth did not reach target: final row %v", last)
	}
}

func TestFig6AsyncSmoke(t *testing.T) {
	tb := Fig6(smr.ModeAsync, 10, 2)
	requireTable(t, tb, 1)
	if n := cell(t, tb, len(tb.Rows)-1, 1); n < 10 {
		t.Fatalf("growth did not reach target: final row %v", tb.Rows[len(tb.Rows)-1])
	}
	gaveUp, joiners := -1, 0
	for _, r := range tb.Remarks {
		if strings.HasSuffix(r, " joiners gave up") {
			fmt.Sscanf(r, "%d of %d", &gaveUp, &joiners)
		}
	}
	if gaveUp != 0 || joiners == 0 {
		t.Fatalf("want 0 joiners given up, remarks %q", tb.Remarks)
	}
}

func TestFig7Smoke(t *testing.T) {
	// 16 nodes is the smallest scale at which the churn search has headroom
	// (its candidate rates start at N/8 re-joins per minute).
	tb := Fig7(smr.ModeSync, []int{16}, 1)
	requireTable(t, tb, 1)
	if rate := cell(t, tb, 0, 1); rate <= 0 {
		t.Fatalf("churn rate must be positive: %v", tb.Rows[0])
	}
}

func TestFig8Smoke(t *testing.T) {
	tb := Fig8(smr.ModeSync, 10, 0, 3, 500*time.Millisecond, 1)
	requireTable(t, tb, 1)
}

func TestFig8ByzantineSmoke(t *testing.T) {
	tb := Fig8(smr.ModeSync, 10, 1, 3, 500*time.Millisecond, 2)
	requireTable(t, tb, 1)
}

func TestFig9Smoke(t *testing.T) {
	tb := Fig9([]int{2, 8}, 1)
	requireTable(t, tb, 2)
	// Normalized latency must fall (or at worst stay flat) as file size
	// grows: constant handshake overhead amortizes.
	if cell(t, tb, 1, 1) > cell(t, tb, 0, 1)*1.5 {
		t.Fatalf("NFS-like latency/MB did not amortize: %v vs %v", tb.Rows[0], tb.Rows[1])
	}
}

func TestFig10Smoke(t *testing.T) {
	tb := Fig10(2, []int{4, 6}, 2, 1)
	requireTable(t, tb, 2)
	// Corruption must cost something: corrupt-replica latency >= clean.
	for r := range tb.Rows {
		clean, corrupt := cell(t, tb, r, 1), cell(t, tb, r, 2)
		if corrupt < clean {
			t.Fatalf("corrupt read faster than clean in row %v", tb.Rows[r])
		}
	}
}

func TestFig12Smoke(t *testing.T) {
	tb := Fig12(8, 4, 1)
	requireTable(t, tb, 1)
}

func TestFig13Smoke(t *testing.T) {
	tb := Fig13(10, []int{8, 24}, 1)
	requireTable(t, tb, 2)
	// The completion rate (last column) is a fraction in [0,1].
	for r := range tb.Rows {
		v := cell(t, tb, r, len(tb.Header)-1)
		if v < 0 || v > 1 {
			t.Fatalf("completion rate out of range: %v", tb.Rows[r])
		}
	}
}
