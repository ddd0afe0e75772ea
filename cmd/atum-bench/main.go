// Command atum-bench regenerates the paper's evaluation tables and figures
// (§6) on the discrete-event simulator.
//
// Usage:
//
//	atum-bench -exp all                 # everything, paper-like scale
//	atum-bench -exp fig8 -n 200 -byz 0  # one experiment
//	atum-bench -exp fig4 -quick         # smoke scale
//
// Experiments: table1 robustness fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 backpressure all. Comparing two revisions of the engine is the
// repository benchmark's job (bash atumbench/run.sh, BENCHMARK.json).
// Output: paper-style rows on stdout; README.md quotes the headline rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"atum/internal/experiment"
	"atum/internal/smr"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp   = flag.String("exp", "all", "experiment: table1|robustness|fig4|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|backpressure|all")
		n     = flag.Int("n", 0, "system size override")
		byz   = flag.Int("byz", 0, "byzantine node count (fig8)")
		seed  = flag.Int64("seed", 1, "simulation seed")
		quick = flag.Bool("quick", false, "smoke-test scale")
		mode  = flag.String("mode", "sync", "smr mode: sync|async")
	)
	flag.Parse()

	m := smr.ModeSync
	if *mode == "async" {
		m = smr.ModeAsync
	}

	runOne := func(name string) bool {
		switch name {
		case "table1":
			fmt.Print(experiment.Table1())
		case "robustness":
			sizes := []int{200, 500, 1000, 2000, 5000}
			if *quick {
				sizes = []int{200, 1000}
			}
			ks := []int{3, 4, 5, 6, 7}
			fmt.Print(experiment.Robustness(sizes, ks, 0.06, smr.ModeSync))
			fmt.Println()
			fmt.Print(experiment.Robustness(sizes, ks, 0.06, smr.ModeAsync))
			fmt.Println()
			// Decay becomes visible at heavier fault loads.
			fmt.Print(experiment.Robustness(sizes, ks, 0.15, smr.ModeAsync))
		case "fig4":
			counts := []int{8, 32, 128, 512}
			walks := 30
			if *quick {
				counts = []int{8, 32}
				walks = 10
			}
			fmt.Print(experiment.Fig4(counts, []int{2, 4, 6, 8}, walks, *seed))
		case "fig6":
			target := pick(*n, 120, *quick, 24)
			fmt.Print(experiment.Fig6(m, target, *seed))
		case "fig7":
			sizes := []int{24, 48}
			if *quick {
				sizes = []int{12}
			}
			fmt.Print(experiment.Fig7(m, sizes, *seed))
		case "fig8":
			size := pick(*n, 60, *quick, 16)
			b := 20
			if *quick {
				b = 5
			}
			fmt.Print(experiment.Fig8(m, size, *byz, b, 1500*time.Millisecond, *seed))
			if *byz == 0 && !*quick {
				fmt.Print(experiment.Fig8(m, size, size/17, b, 1500*time.Millisecond, *seed))
			}
		case "fig9":
			sizes := []int{2, 8, 32, 128}
			if *quick {
				sizes = []int{2, 8}
			}
			fmt.Print(experiment.Fig9(sizes, *seed))
		case "fig10":
			fmt.Print(experiment.Fig10(10, pickSlice(*quick, []int{8, 12, 16, 20}, []int{8, 12}), 6, *seed))
		case "fig11":
			fmt.Print(experiment.Fig10(10, pickSlice(*quick, []int{8, 12, 16, 20}, []int{8, 12}), 6, *seed+1))
		case "fig12":
			size := pick(*n, 20, *quick, 10)
			chunks := 20
			if *quick {
				chunks = 5
			}
			fmt.Print(experiment.Fig12(size, chunks, *seed))
		case "fig13":
			target := pick(*n, 60, *quick, 20)
			rates := []int{8, 20, 24}
			if *quick {
				rates = []int{8, 24}
			}
			fmt.Print(experiment.Fig13(target, rates, *seed))
		case "backpressure":
			// Flow-controlled sends against a flood that bypasses the API. The
			// slow-consumer scenario needs enough stable members for 8
			// publishers + 8 flooders + the slow node; N stays >= 48 even in
			// quick mode (the run is seconds either way).
			size := pick(*n, 48, *quick, 48)
			rounds := 12
			if *quick {
				rounds = 6
			}
			fmt.Print(experiment.Backpressure(size, 8, rounds, *seed))
		default:
			return false
		}
		fmt.Println()
		return true
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "robustness", "fig4", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "backpressure"} {
			runOne(name)
		}
		return 0
	}
	if !runOne(*exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}

func pick(override, def int, quick bool, quickDef int) int {
	if override > 0 {
		return override
	}
	if quick {
		return quickDef
	}
	return def
}

func pickSlice(quick bool, full, small []int) []int {
	if quick {
		return small
	}
	return full
}
