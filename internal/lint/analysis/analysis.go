// Package analysis is the minimal in-repo analyzer framework behind
// cmd/atumvet. It mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a Pass and reports Diagnostics —
// but is built on the standard library alone (go/ast, go/parser,
// go/token, go/types): the repo vendors no third-party modules. Two
// analyzers (retainview, detclock) are purely syntactic; analyzers that
// set NeedTypes additionally get a go/types
// view of their unit (Pass.Pkg, Pass.TypesInfo), type-checked with a
// module-local source importer (types.go) — no go/packages, no
// toolchain subprocesses.
//
// Deliberate exceptions are annotated in the checked source with
//
//	//atumvet:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — an allow directive without one is itself reported — so
// every suppression documents why the invariant does not apply (the
// annotation procedure is described in docs/ARCHITECTURE.md,
// "Machine-checked invariants").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and in allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// SkipTests excludes _test.go files from the pass. Contracts about
	// production memory ownership or determinism do not bind test code
	// (tests inject seeded rngs and deliberately alias views to pin the
	// aliasing behaviour itself).
	SkipTests bool
	// NeedTypes requests the type-aware view: the pass runs with
	// Pass.Pkg and Pass.TypesInfo populated from a go/types check of the
	// unit's non-test files (types.go). NeedTypes implies SkipTests —
	// test files carry no type information.
	NeedTypes bool
	// Run inspects one package-shaped unit and reports findings.
	Run func(*Pass) error
}

// File is one parsed source file of a unit.
type File struct {
	AST  *ast.File
	Name string // file path as given to the parser
	Test bool   // strings.HasSuffix(Name, "_test.go")
}

// Pass carries one analyzer's view of one unit (a directory's worth of
// files, test files included unless the analyzer opted out).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []File
	// PkgPath is the unit's import path (module path + relative
	// directory), letting analyzers scope themselves to package subtrees.
	PkgPath string
	// Dir is the unit's directory on disk.
	Dir string
	// Pkg and TypesInfo are the unit's type-checked package and the
	// types recorded for its non-test files. Populated only for
	// analyzers that set NeedTypes; nil otherwise.
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowDirective is one parsed //atumvet:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	line     int
}

const allowPrefix = "//atumvet:allow"

// parseAllows collects the allow directives of a file, and reports
// malformed ones (missing analyzer name or reason) as diagnostics so a
// bare suppression cannot silently disable a check.
func parseAllows(fset *token.FileSet, f *ast.File, diags *[]Diagnostic) []allowDirective {
	var out []allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
			name, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			if name == "" || strings.TrimSpace(reason) == "" {
				*diags = append(*diags, Diagnostic{
					Pos:      pos,
					Analyzer: "atumvet",
					Message:  "malformed allow directive: want //atumvet:allow <analyzer> <reason>",
				})
				continue
			}
			out = append(out, allowDirective{analyzer: name, reason: reason, line: pos.Line})
		}
	}
	return out
}

// suppressed reports whether d is covered by an allow directive on its
// line or the line directly above.
func suppressed(d Diagnostic, allows map[string][]allowDirective) bool {
	for _, a := range allows[d.Pos.Filename] {
		if a.analyzer != d.Analyzer {
			continue
		}
		if a.line == d.Pos.Line || a.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}
