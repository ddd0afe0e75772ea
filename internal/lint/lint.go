// Package lint assembles the repo's custom analyzers — the atumvet
// suite. The analyzers encode invariants the type system cannot. Two
// are syntactic: zero-copy view lifetimes (retainview) and the
// determinism scope (detclock). Three are
// type-aware, built on the go/types layer in internal/lint/analysis:
// actor confinement of engine state (actorconfine), the single-egress
// send boundary (egressonly), and clone-on-return ownership of the API
// surface (aliasret).
// cmd/atumvet runs them from the command line and CI; the regression
// test in cmd/atumvet keeps the tree at zero findings.
package lint

import (
	"atum/internal/lint/actorconfine"
	"atum/internal/lint/aliasret"
	"atum/internal/lint/analysis"
	"atum/internal/lint/detclock"
	"atum/internal/lint/egressonly"
	"atum/internal/lint/retainview"
)

// Analyzers returns the full atumvet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		retainview.Analyzer,
		detclock.Analyzer,
		actorconfine.Analyzer,
		egressonly.Analyzer,
		aliasret.Analyzer,
	}
}
