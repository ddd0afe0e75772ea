package detclock_test

import (
	"testing"

	"atum/internal/lint/analysis"
	"atum/internal/lint/detclock"
	"atum/internal/lint/linttest"
)

func TestClockFixtures(t *testing.T) {
	for _, pkg := range []string{"atum/internal/core", "atum/internal/egress"} {
		linttest.Run(t, detclock.Analyzer, "testdata/clock", pkg)
	}
}

// TestOutOfScopeExempt runs the same fixture under a transport package
// path: real-I/O packages may use real time, so nothing fires.
func TestOutOfScopeExempt(t *testing.T) {
	units, err := analysis.Load("testdata/clock", ".")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("got %d units, want 1", len(units))
	}
	units[0].PkgPath = "atum/internal/tcpnet"
	diags, err := analysis.Run(units, []*analysis.Analyzer{detclock.Analyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced findings: %v", diags)
	}
}
