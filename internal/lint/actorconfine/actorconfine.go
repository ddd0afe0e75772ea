// Package actorconfine machine-checks the single-threaded-actor contract
// of the engine core. internal/core.Node — with its egress port, which holds
// the node's transport handle — is a deterministic state machine
// whose every callback runs inside one serialized actor loop
// (internal/actor): that is why tier-1 is race-clean without a single
// lock in the protocol code, and it is the precondition for the virtual-
// time scaling arc (a node whose state is touched off-loop cannot be
// replayed). Two rules enforce it:
//
//  1. Inside atum/internal/core and atum/internal/egress (non-test), no
//     concurrency machinery at all: no go statements, no channel
//     operations (send, receive, select, make(chan)), and no use of the
//     sync/sync-atomic packages. The engine acts on the world only
//     through actor.Env, which only its egress port holds. The one
//     sanctioned exception — the process-wide raw-codec registry in
//     rawext.go, which is cross-node by design — carries //atumvet:allow
//     directives with reasons.
//
//  2. Repo-wide (non-test), no method call on an engine node from inside
//     a go statement: a goroutine body (including nested function
//     literals) that invokes a method on core.Node, on the public
//     atum.Node wrapper, or through the actor.Node interface is touching
//     actor-confined state from outside the loop. Runtime mailbox loops
//     — the goroutines that ARE the serialization point — carry allow
//     directives saying so. This is a direct-call check, not a full
//     reachability analysis: a goroutine that reaches node state through
//     a helper function is caught only if the helper is itself a method
//     on the node types (the goroutine-leak lifecycle test backstops the
//     gap at runtime).
package actorconfine

import (
	"go/ast"
	"go/token"
	"go/types"

	"atum/internal/lint/analysis"
)

// Analyzer is the actorconfine pass.
var Analyzer = &analysis.Analyzer{
	Name:      "actorconfine",
	Doc:       "engine state is actor-confined: no concurrency primitives inside internal/core and internal/egress, and no engine-node method calls from goroutine bodies anywhere in the repo",
	SkipTests: true,
	NeedTypes: true,
	Run:       run,
}

// actorPkgs are the actor packages rule 1 protects.
var actorPkgs = map[string]bool{"atum/internal/core": true, "atum/internal/egress": true}

// confinedTypes are the (package path, type name) pairs whose methods
// must only be called from actor context (rule 2). actor.Node is the
// interface every runtime drives; the concrete engine node and its
// public wrapper cover direct references.
var confinedTypes = map[[2]string]bool{
	{"atum/internal/core", "Node"}:  true,
	{"atum", "Node"}:                true,
	{"atum/internal/actor", "Node"}: true,
}

// bannedImports are the concurrency packages rule 1 bans from core.
var bannedImports = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

func run(pass *analysis.Pass) error {
	inCore := actorPkgs[pass.PkgPath]
	for _, f := range pass.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if inCore {
					pass.Reportf(g.Pos(), "go statement in the actor package %s: the engine must act only through actor.Env", pass.PkgPath)
				}
				checkGoroutineBody(pass, g)
				// The body was just checked in goroutine context; generic
				// in-core traversal below still proceeds on the same nodes
				// for channel/sync hits, which is fine (distinct messages).
			}
			if !inCore {
				return true
			}
			switch x := n.(type) {
			case *ast.SendStmt:
				pass.Reportf(x.Arrow, "channel send in the actor package %s", pass.PkgPath)
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					pass.Reportf(x.OpPos, "channel receive in the actor package %s", pass.PkgPath)
				}
			case *ast.SelectStmt:
				pass.Reportf(x.Select, "select statement in the actor package %s", pass.PkgPath)
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
					if _, ok := pass.TypesInfo.Types[x.Args[0]].Type.Underlying().(*types.Chan); ok {
						pass.Reportf(x.Pos(), "make(chan) in the actor package %s", pass.PkgPath)
					}
				}
			case *ast.Ident:
				// A qualified reference to a banned package (sync.Mutex,
				// atomic.AddUint64, ...) resolves the package ident to a
				// PkgName; one report per reference.
				if pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok && bannedImports[pn.Imported().Path()] {
					pass.Reportf(x.Pos(), "use of %s in the actor package %s: protocol state needs no locks inside the actor loop", pn.Imported().Path(), pass.PkgPath)
				}
			}
			return true
		})
	}
	return nil
}

// checkGoroutineBody flags method calls on confined node types anywhere
// under a go statement: the spawned call expression itself, a spawned
// function literal's body, and any function literals nested inside it.
func checkGoroutineBody(pass *analysis.Pass, g *ast.GoStmt) {
	ast.Inspect(g, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel, ok := pass.TypesInfo.Selections[se]
		if !ok || (sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr) {
			return true
		}
		recv := sel.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return true
		}
		key := [2]string{named.Obj().Pkg().Path(), named.Obj().Name()}
		if confinedTypes[key] {
			pass.Reportf(se.Pos(), "%s.%s.%s called from a goroutine: engine node state is confined to the actor loop (route through the runtime's Invoke, or justify with //atumvet:allow actorconfine <reason>)",
				key[0], key[1], se.Sel.Name)
		}
		return true
	})
}
