// Package egressonly machine-checks the single-egress invariant of the
// engine core: every message the engine emits leaves through core's
// egress.go, the one file that knows how — sendGroup (queued on the egress
// scheduler or fanned out at once, as the kind's wire-table row says),
// sendToNode (a group message to one node) and sendNodeMsg (a node-level
// message). A protocol handler that calls a transport primitive directly —
// env.Send, the sendNow/sendGroupQuantized bottom SendFns, or the
// internal/group Send* fan-out helpers — decides for itself what the table
// and the scheduler decide for everyone else: batching, round quantization,
// per-destination queueing, the silent-node drop.
//
// The analyzer flags every direct-send call site in atum/internal/core
// (non-test) outside egress.go. The holes left in the boundary — today the
// three certificate-mode walk sends, whose per-member attachment no helper
// has a slot for — carry //atumvet:allow egressonly directives stating why,
// so every one is enumerable with grep.
package egressonly

import (
	"go/ast"
	"path/filepath"
	"strings"

	"atum/internal/lint/analysis"

	"go/types"
)

// Analyzer is the egressonly pass.
var Analyzer = &analysis.Analyzer{
	Name:      "egressonly",
	Doc:       "engine sends leave through egress.go's sendGroup/sendToNode/sendNodeMsg: no direct env.Send, sendNow/sendGroupQuantized, or group.Send* calls in internal/core outside egress.go without an allow directive",
	SkipTests: true,
	NeedTypes: true,
	Run:       run,
}

const (
	corePkg  = "atum/internal/core"
	groupPkg = "atum/internal/group"
	actorPkg = "atum/internal/actor"
)

// bottomSendFns are the core.Node methods that hand bytes to the
// transport with no routing decision in between.
var bottomSendFns = map[string]bool{
	"sendNow":            true,
	"sendGroupQuantized": true,
}

func run(pass *analysis.Pass) error {
	if pass.PkgPath != corePkg {
		return nil
	}
	for _, f := range pass.Files {
		if filepath.Base(f.Name) == "egress.go" {
			// This file IS the egress path.
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			se, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel, ok := pass.TypesInfo.Selections[se]; ok && sel.Kind() == types.MethodVal {
				name := se.Sel.Name
				recv := sel.Recv()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok || named.Obj().Pkg() == nil {
					return true
				}
				rpkg, rname := named.Obj().Pkg().Path(), named.Obj().Name()
				switch {
				case name == "Send" && rpkg == actorPkg && rname == "Env":
					pass.Reportf(call.Pos(), "direct env.Send bypasses egress.go: route through sendGroup, sendToNode or sendNodeMsg, or justify with //atumvet:allow egressonly <reason>")
				case bottomSendFns[name] && rpkg == corePkg && rname == "Node":
					pass.Reportf(call.Pos(), "direct %s call bypasses egress.go: route through sendGroup, sendToNode or sendNodeMsg, or justify with //atumvet:allow egressonly <reason>", name)
				}
				return true
			}
			// Package-qualified call: group.Send* helpers fan out straight
			// onto whatever SendFn they are handed — below the boundary.
			if fn, ok := pass.TypesInfo.Uses[se.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == groupPkg && strings.HasPrefix(fn.Name(), "Send") {
				pass.Reportf(call.Pos(), "direct group.%s call bypasses egress.go: route through sendGroup, sendToNode or sendNodeMsg, or justify with //atumvet:allow egressonly <reason>", fn.Name())
			}
			return true
		})
	}
	return nil
}
