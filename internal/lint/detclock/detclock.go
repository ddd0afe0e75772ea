// Package detclock machine-checks the determinism contract of the
// simulation-facing packages: internal/{core,egress,group,overlay,smr} must not
// read the wall clock or the global math/rand stream. The engine is
// driven by an injected clock and per-node seeded RNGs so that a cluster
// run is a pure function of its seed; one stray time.Now or rand.Intn
// re-introduces run-to-run divergence that shows up as unreproducible
// test failures long after the call site is forgotten. Deliberate
// exceptions (none today in scope) carry an //atumvet:allow detclock
// directive with a reason.
//
// Transports (tcpnet), the CLI, and tests are out of scope: they face
// real I/O and may use real time.
package detclock

import (
	"go/ast"
	"strconv"
	"strings"

	"atum/internal/lint/analysis"
)

// Analyzer is the detclock pass.
var Analyzer = &analysis.Analyzer{
	Name:      "detclock",
	Doc:       "forbid wall-clock time and global math/rand in the deterministic packages (internal/{core,egress,group,overlay,smr}); use the injected clock and seeded RNGs",
	SkipTests: true,
	Run:       run,
}

// scopedPkgs are the package-path prefixes the determinism contract
// covers.
var scopedPkgs = []string{
	"atum/internal/core",
	"atum/internal/egress",
	"atum/internal/group",
	"atum/internal/overlay",
	"atum/internal/smr",
}

// bannedTime are the time functions that read or schedule against the
// wall clock. Pure constructors and conversions (Duration arithmetic,
// Unix, Date) stay legal.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand are the only package-level math/rand names usable in
// scope: constructing a seeded generator. Everything else draws from the
// shared global stream.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		timeNames, randNames := importNames(f.AST)
		if len(timeNames) == 0 && len(randNames) == 0 {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			// Only call sites: type references (*rand.Rand, time.Duration)
			// and method values on injected generators stay legal.
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if timeNames[pkg.Name] && bannedTime[name] {
				pass.Reportf(sel.Pos(), "wall clock: %s.%s in deterministic package %s; use the injected clock", pkg.Name, name, pass.PkgPath)
			}
			if randNames[pkg.Name] && !allowedRand[name] {
				pass.Reportf(sel.Pos(), "global rand: %s.%s in deterministic package %s; draw from the node's seeded *rand.Rand", pkg.Name, name, pass.PkgPath)
			}
			return true
		})
	}
	return nil
}

func inScope(pkgPath string) bool {
	for _, p := range scopedPkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// importNames maps the local names under which a file imports "time" and
// "math/rand" (respecting renames; dot and blank imports are ignored —
// a dot import of time would be flagged by style checks long before
// this).
func importNames(f *ast.File) (timeNames, randNames map[string]bool) {
	timeNames = map[string]bool{}
	randNames = map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
			if local == "." || local == "_" {
				continue
			}
		}
		switch path {
		case "time":
			if local == "" {
				local = "time"
			}
			timeNames[local] = true
		case "math/rand", "math/rand/v2":
			if local == "" {
				local = "rand"
			}
			randNames[local] = true
		}
	}
	return timeNames, randNames
}
