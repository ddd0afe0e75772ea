// Package lint assembles the repo's custom analyzers — the atumvet
// suite. The analyzers encode invariants the type system cannot. One
// is syntactic: the determinism scope (detclock). Two are type-aware,
// built on the go/types layer in internal/lint/analysis: actor
// confinement of engine state (actorconfine) and clone-on-return
// ownership of the API surface (aliasret). The single way out needs no
// analyzer: the engine keeps no transport handle (internal/egress).
// cmd/atumvet runs them from the command line and CI; the regression
// test in cmd/atumvet keeps the tree at zero findings.
package lint

import (
	"atum/internal/lint/actorconfine"
	"atum/internal/lint/aliasret"
	"atum/internal/lint/analysis"
	"atum/internal/lint/detclock"
)

// Analyzers returns the full atumvet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detclock.Analyzer,
		actorconfine.Analyzer,
		aliasret.Analyzer,
	}
}
