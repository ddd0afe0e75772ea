// Command atumvet runs the repo's custom static analyzers: detclock
// (wall-clock and global-rand bans in the deterministic packages), and
// the two type-aware passes — actorconfine (engine state confined to the
// actor loop) and aliasret (exported API methods clone reference state on
// the way out). It exits non-zero
// when any finding survives the //atumvet:allow directives, printing
// findings in the familiar file:line:col form — plus GitHub error
// annotations when running under Actions.
//
// Usage:
//
//	atumvet [-C dir] [packages]
//
// where packages are directories or dir/... subtree patterns relative to
// the module root; the default is ./... .
package main

import (
	"flag"
	"fmt"
	"os"

	"atum/internal/lint"
	"atum/internal/lint/analysis"
)

func main() {
	root := flag.String("C", ".", "module root to analyze from")
	flag.Parse()
	patterns := flag.Args()

	units, err := analysis.Load(*root, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atumvet: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(units, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "atumvet: %v\n", err)
		os.Exit(2)
	}
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, d := range diags {
		fmt.Println(d.String())
		if annotate {
			fmt.Printf("::error file=%s,line=%d,col=%d::%s: %s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "atumvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
