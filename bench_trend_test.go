package atum_test

// BENCH_TREND.json is the committed trajectory of the repository benchmark:
// one record per PR that ran the BENCHMARK.json contract, holding the parent's
// and the change's medians. The first test keeps its names honest against the
// contract; the second is the repo-bench CI job's gate on the newest record.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type benchContract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type benchTrend struct {
	Records []struct {
		PR        int    `json:"pr"`
		Parent    string `json:"parent"`
		Seed      int64  `json:"seed"`
		Seconds   int    `json:"seconds"`
		Pairs     int    `json:"pairs"`
		Workloads map[string]struct {
			Parent map[string]float64 `json:"parent"`
			Change map[string]float64 `json:"change"`
		} `json:"workloads"`
	} `json:"records"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func readBenchFiles(t *testing.T) (benchContract, benchTrend) {
	t.Helper()
	var c benchContract
	var tr benchTrend
	readJSON(t, "BENCHMARK.json", &c)
	readJSON(t, "BENCH_TREND.json", &tr)
	if len(tr.Records) == 0 {
		t.Fatal("BENCH_TREND.json holds no record")
	}
	return c, tr
}

// TestBenchTrendMatchesContract checks every record of BENCH_TREND.json
// against BENCHMARK.json: each contracted workload is present under its name,
// and both sides of it carry exactly the contract's end-to-end metrics.
func TestBenchTrendMatchesContract(t *testing.T) {
	c, tr := readBenchFiles(t)
	for _, rec := range tr.Records {
		if rec.PR == 0 || rec.Parent == "" || rec.Seconds == 0 || rec.Pairs == 0 {
			t.Errorf("record %+v: pr, parent, seconds and pairs must be set", rec.PR)
		}
		if len(rec.Workloads) != len(c.Workloads) {
			t.Errorf("PR %d: %d workloads, the contract has %d", rec.PR, len(rec.Workloads), len(c.Workloads))
		}
		for _, w := range c.Workloads {
			sides, ok := rec.Workloads[w.Name]
			if !ok {
				t.Errorf("PR %d: no workload %q", rec.PR, w.Name)
				continue
			}
			for side, metrics := range map[string]map[string]float64{"parent": sides.Parent, "change": sides.Change} {
				if len(metrics) != len(c.EndToEnd) {
					t.Errorf("PR %d, %s, %s: %d metrics, the contract has %d", rec.PR, w.Name, side, len(metrics), len(c.EndToEnd))
				}
				for _, m := range c.EndToEnd {
					if _, ok := metrics[m.Name]; !ok {
						t.Errorf("PR %d, %s, %s: no metric %q", rec.PR, w.Name, side, m.Name)
					}
				}
			}
		}
	}
}

// wallClock names the end-to-end metrics that depend on the machine; the gate
// prints them and compares the rest.
var wallClock = map[string]bool{"setup_s": true, "cpu_us_per_delivery": true}

// TestBenchTrendGate compares benchmark results with the newest record's
// change values, using the contract's better/bound: a machine-independent
// metric worse than recorded by more than its bound fails. It runs only where
// ATUM_BENCH_RESULTS names a directory holding repo-bench-<workload>.json (the
// last stdout line of atumbench/run.sh at --seed 1 --seconds 9), which is what
// the repo-bench CI job produces.
func TestBenchTrendGate(t *testing.T) {
	dir := os.Getenv("ATUM_BENCH_RESULTS")
	if dir == "" {
		t.Skip("ATUM_BENCH_RESULTS not set")
	}
	c, tr := readBenchFiles(t)
	rec := tr.Records[len(tr.Records)-1]
	if rec.Seed != 1 || rec.Seconds != 9 {
		t.Fatalf("the newest record (PR %d) was measured at seed %d, --seconds %d; the repo-bench job runs seed 1, --seconds 9",
			rec.PR, rec.Seed, rec.Seconds)
	}
	for _, w := range c.Workloads {
		var got struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		readJSON(t, filepath.Join(dir, "repo-bench-"+w.Name+".json"), &got)
		if !got.Correct || got.Failed != 0 {
			t.Errorf("%s: correct=%v, %d operations failed", w.Name, got.Correct, got.Failed)
		}
		for _, m := range c.EndToEnd {
			have, want := got.Metrics[m.Name].Value, rec.Workloads[w.Name].Change[m.Name]
			worse := have > want*(1+m.Bound)
			if m.Better == "higher" {
				worse = have < want*(1-m.Bound)
			}
			switch {
			case wallClock[m.Name]:
				t.Logf("%s %s = %g (PR %d recorded %g; wall clock, not gated)", w.Name, m.Name, have, rec.PR, want)
			case worse:
				t.Errorf("%s %s = %g, worse than the %g PR %d recorded by more than the bound %g",
					w.Name, m.Name, have, want, rec.PR, m.Bound)
			default:
				t.Logf("%s %s = %g (PR %d recorded %g)", w.Name, m.Name, have, rec.PR, want)
			}
		}
	}
}
