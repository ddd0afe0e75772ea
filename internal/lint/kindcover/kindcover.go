// Package kindcover machine-checks the wire kind registry's coverage
// invariant: every kind* constant in internal/core has exactly one
// dispatch route, declared exactly once. The registry partitions into
// three disjoint classes —
//
//   - batchableKinds (egress.go): votable kinds a batch carrier may
//     inject into the inbox;
//   - unbatchedKinds (messages.go): votable but node-addressed or
//     special-cased kinds that must never arrive inside a carrier;
//   - the two carriers themselves, kindBatch and kindRaw, which carry
//     other messages and are not payload kinds at all.
//
// Adding a kind without placing it in exactly one class, or forgetting
// its kindPayloads entry (or giving a carrier one), trips the check. This
// turns "did you update all three tables?" — previously a code-review
// question (docs/WIRE.md) — into a build failure.
package kindcover

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"atum/internal/lint/analysis"
)

// Analyzer is the kindcover pass.
var Analyzer = &analysis.Analyzer{
	Name:      "kindcover",
	Doc:       "every wire kind constant belongs to exactly one dispatch class (batchable/unbatched/carrier) and has a kindPayloads entry iff it is not a carrier",
	SkipTests: true,
	NeedTypes: true,
	Run:       run,
}

const (
	corePkg  = "atum/internal/core"
	groupPkg = "atum/internal/group"
)

// carrierKinds are the two kinds that carry other messages instead of an
// enveloped engine payload; they belong to no dispatch set and must have
// no kindPayloads entry.
var carrierKinds = map[string]bool{
	"kindBatch": true,
	"kindRaw":   true,
}

// setNames are the two declarative dispatch sets plus the payload
// registry; all three must exist as package-level map literals in core.
var setNames = []string{"batchableKinds", "unbatchedKinds", "kindPayloads"}

func run(pass *analysis.Pass) error {
	if pass.PkgPath != corePkg {
		return nil
	}

	kinds := map[string]token.Pos{}      // kind const name → decl pos
	sets := map[string]map[string]bool{} // set name → member kind names
	for _, f := range pass.Files {
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.CONST:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if isKindConst(pass, name) {
							kinds[name.Name] = name.Pos()
						}
					}
				}
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
						continue
					}
					name := vs.Names[0].Name
					if !isSetName(name) {
						continue
					}
					cl, ok := vs.Values[0].(*ast.CompositeLit)
					if !ok {
						continue
					}
					members := map[string]bool{}
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							members[id.Name] = true
						}
					}
					sets[name] = members
				}
			}
		}
	}

	for _, name := range setNames {
		if sets[name] == nil {
			pass.Reportf(pass.Files[0].AST.Package, "core must declare a package-level %s map literal: the kind registry's dispatch classes are machine-checked", name)
			return nil
		}
	}

	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		pos := kinds[name]
		var in []string
		for _, set := range setNames[:2] {
			if sets[set][name] {
				in = append(in, set)
			}
		}
		if carrierKinds[name] {
			in = append(in, "carrier")
		}
		switch {
		case len(in) == 0:
			pass.Reportf(pos, "%s belongs to no dispatch set: add it to exactly one of batchableKinds or unbatchedKinds", name)
		case len(in) > 1:
			pass.Reportf(pos, "%s belongs to %d dispatch sets (%s): the classes must be disjoint", name, len(in), strings.Join(in, ", "))
		}
		if carrierKinds[name] {
			if sets["kindPayloads"][name] {
				pass.Reportf(pos, "carrier kind %s must not have a kindPayloads entry: its payload is a frame, not an enveloped engine payload", name)
			}
		} else if !sets["kindPayloads"][name] {
			pass.Reportf(pos, "%s has no kindPayloads entry: the codec cannot decode it", name)
		}
	}
	return nil
}

func isSetName(name string) bool {
	for _, s := range setNames {
		if s == name {
			return true
		}
	}
	return false
}

// isKindConst reports whether id names a constant of the wire kind type
// (group.Kind) following the kind* naming convention.
func isKindConst(pass *analysis.Pass, id *ast.Ident) bool {
	if !strings.HasPrefix(id.Name, "kind") {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	c, ok := obj.(*types.Const)
	if !ok {
		return false
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == groupPkg && named.Obj().Name() == "Kind"
}
