// Command atumbench is the repository's benchmark: four workloads, nine
// end-to-end metrics, and per-layer metrics measured from outside the
// program. README.md in this directory defines every name; BENCHMARK.json at
// the repository root is the contract the driver reads.
//
//	go run ./atumbench -workload sync_steady -seed 1 -seconds 9 -trace 0
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. A correctness failure exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "sync_steady, async_wan, sync_churn or tcp_loopback")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 9, "size of the fixed schedule: about this many seconds of measured work, split over the repetitions")
	trace := flag.Int("trace", 0, "1: run one repetition untraced and one behind the tracing wrappers, and print the per-layer metrics")
	layers := flag.Bool("layers", false, "print only the micro-timed per-layer metrics; no workload runs")
	flag.Parse()

	if *layers {
		r := &result{correct: true, attempted: 1, values: layerTimings()}
		exit(r, microLayer)
	}
	if *seconds < 1 || *seconds > 60 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "atumbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	// Each repetition schedules its share of the measured seconds.
	perRep := (*seconds + repetitions - 1) / repetitions
	r, err := run(*seed, perRep, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atumbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	exit(r, defs)
}

// workloads maps a workload name to its runner.
var workloads = func() map[string]func(seed int64, seconds int, traced bool) (*result, error) {
	m := map[string]func(int64, int, bool) (*result, error){"tcp_loopback": runTCPWorkload}
	for _, spec := range simSpecs {
		m[spec.name] = func(seed int64, seconds int, traced bool) (*result, error) {
			if traced {
				return simTraced(spec, seed, seconds)
			}
			return simEndToEnd(spec, seed, seconds)
		}
	}
	return m
}()

func exit(r *result, defs []metricDef) {
	if err := r.emit(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "atumbench: %v\n", err)
		os.Exit(1)
	}
	if !r.correct {
		os.Exit(1)
	}
	os.Exit(0)
}
