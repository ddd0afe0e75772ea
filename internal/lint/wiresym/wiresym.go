// Package wiresym machine-checks the symmetry of hand-written wire-codec
// pairs: for every type with both a MarshalWire(e *wire.Encoder) and an
// UnmarshalWire(d *wire.Decoder) method, the sequence of encoder writes
// must mirror the sequence of decoder reads — same count, same order,
// same primitive widths — including across loops, conditionals, nested
// MarshalWire/UnmarshalWire calls, and marshal/unmarshal helper pairs.
// The repo majority-matches group messages by payload digest and signs
// canonical encodings, so an asymmetric pair does not just fail locally:
// it shows up as interop failures or silent cross-member digest
// divergence (the hazard class the gob→wire migration removed). Round-
// trip tests catch most drift; wiresym catches it at compile time,
// including in pairs no test happens to exercise.
package wiresym

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"atum/internal/lint/analysis"
)

// Analyzer is the wiresym pass.
var Analyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc:  "check MarshalWire/UnmarshalWire pairs encode and decode the same field sequence",
	Run:  run,
}

// Primitive op symbols. Encoder and decoder methods that transfer the
// same wire bytes map to the same symbol (VarBytes and the zero-copy
// VarBytesView read identical framing).
var encMethods = map[string]string{
	"Uint64":   "Uint64",
	"Uint32":   "Uint32",
	"Int64":    "Int64",
	"Byte":     "Byte",
	"Bool":     "Bool",
	"Bytes32":  "Bytes32",
	"VarBytes": "VarBytes",
	"String":   "String",
	"ListLen":  "ListLen",
}

var decMethods = map[string]string{
	"Uint64":       "Uint64",
	"Uint32":       "Uint32",
	"Int64":        "Int64",
	"Byte":         "Byte",
	"Bool":         "Bool",
	"Bytes32":      "Bytes32",
	"VarBytes":     "VarBytes",
	"VarBytesView": "VarBytes",
	"String":       "String",
	"ListLen":      "ListLen",
}

// Codec methods that move no wire bytes: bookkeeping, never ops.
var ignoreMethods = map[string]bool{
	"Err": true, "Fail": true, "Finish": true, "Len": true, "Bytes": true,
	"Detach": true, "Reset": true,
}

func run(pass *analysis.Pass) error {
	type half struct {
		fn   *ast.FuncDecl
		file string
	}
	enc := map[string]half{}
	dec := map[string]half{}

	for _, f := range pass.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil {
				continue
			}
			recv := receiverName(fn)
			if recv == "" {
				continue
			}
			switch fn.Name.Name {
			case "MarshalWire":
				if codecParam(fn, "Encoder") != "" {
					enc[recv] = half{fn, f.Name}
				}
			case "UnmarshalWire":
				if codecParam(fn, "Decoder") != "" {
					dec[recv] = half{fn, f.Name}
				}
			}
		}
	}

	for recv, eh := range enc {
		dh, ok := dec[recv]
		if !ok {
			// Marshal-only types are legitimate (canonical digest
			// encodings never decoded); drift is only checkable — and
			// only hazardous — when both halves exist.
			continue
		}
		encOps := extract(eh.fn, codecParam(eh.fn, "Encoder"), encMethods)
		decOps := extract(dh.fn, codecParam(dh.fn, "Decoder"), decMethods)
		if msg, pos := compare(recv, encOps, decOps); msg != "" {
			if pos == token.NoPos {
				pos = dh.fn.Name.Pos()
			}
			pass.Reportf(pos, "%s", msg)
		}
	}
	return nil
}

// receiverName returns the base type name of a method receiver.
func receiverName(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) != 1 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// codecParam returns the name of fn's single parameter whose type ends
// in want ("Encoder"/"Decoder"), or "".
func codecParam(fn *ast.FuncDecl, want string) string {
	for _, field := range fn.Type.Params.List {
		t := field.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		name := ""
		switch tt := t.(type) {
		case *ast.Ident:
			name = tt.Name
		case *ast.SelectorExpr:
			name = tt.Sel.Name
		}
		if name == want && len(field.Names) == 1 {
			return field.Names[0].Name
		}
	}
	return ""
}

// opNode is one element of a codec shape: a leaf op, a repetition group
// (loop body), or a branch group (if/switch arms).
type opNode struct {
	sym  string     // leaf: op symbol; groups: "rep" or "branch"
	arms [][]opNode // rep: arms[0] is the body; branch: one arm per case
	pos  token.Pos
}

func (n opNode) leaf() bool { return n.sym != "rep" && n.sym != "branch" }

// extract flattens a codec method body into its op shape.
func extract(fn *ast.FuncDecl, param string, methods map[string]string) []opNode {
	if param == "" {
		return nil
	}
	x := &extractor{param: param, methods: methods}
	return x.stmts(fn.Body.List)
}

type extractor struct {
	param   string
	methods map[string]string
}

func (x *extractor) stmts(list []ast.Stmt) []opNode {
	var out []opNode
	for _, s := range list {
		out = append(out, x.stmt(s)...)
	}
	return out
}

func (x *extractor) stmt(s ast.Stmt) []opNode {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return x.stmts(st.List)
	case *ast.IfStmt:
		var out []opNode
		if st.Init != nil {
			out = append(out, x.stmt(st.Init)...)
		}
		out = append(out, x.expr(st.Cond)...)
		arms := [][]opNode{x.stmts(st.Body.List)}
		if st.Else != nil {
			arms = append(arms, x.stmt(st.Else))
		} else {
			arms = append(arms, nil)
		}
		if len(arms[0]) > 0 || len(arms[1]) > 0 {
			out = append(out, opNode{sym: "branch", arms: arms, pos: st.Pos()})
		}
		return out
	case *ast.ForStmt:
		var out []opNode
		if st.Init != nil {
			out = append(out, x.stmt(st.Init)...)
		}
		out = append(out, x.expr(st.Cond)...)
		if body := x.stmts(st.Body.List); len(body) > 0 {
			out = append(out, opNode{sym: "rep", arms: [][]opNode{body}, pos: st.Pos()})
		}
		return out
	case *ast.RangeStmt:
		out := x.expr(st.X)
		if body := x.stmts(st.Body.List); len(body) > 0 {
			out = append(out, opNode{sym: "rep", arms: [][]opNode{body}, pos: st.Pos()})
		}
		return out
	case *ast.SwitchStmt:
		var out []opNode
		if st.Init != nil {
			out = append(out, x.stmt(st.Init)...)
		}
		out = append(out, x.expr(st.Tag)...)
		var arms [][]opNode
		any := false
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			arm := x.stmts(cc.Body)
			arms = append(arms, arm)
			any = any || len(arm) > 0
		}
		if any {
			out = append(out, opNode{sym: "branch", arms: arms, pos: st.Pos()})
		}
		return out
	case *ast.TypeSwitchStmt:
		var out []opNode
		var arms [][]opNode
		any := false
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			arm := x.stmts(cc.Body)
			arms = append(arms, arm)
			any = any || len(arm) > 0
		}
		if any {
			out = append(out, opNode{sym: "branch", arms: arms, pos: st.Pos()})
		}
		return out
	case *ast.ExprStmt:
		return x.expr(st.X)
	case *ast.AssignStmt:
		var out []opNode
		for _, r := range st.Rhs {
			out = append(out, x.expr(r)...)
		}
		return out
	case *ast.DeclStmt:
		var out []opNode
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = append(out, x.expr(v)...)
					}
				}
			}
		}
		return out
	case *ast.ReturnStmt:
		var out []opNode
		for _, r := range st.Results {
			out = append(out, x.expr(r)...)
		}
		return out
	case *ast.DeferStmt:
		return x.expr(st.Call)
	case *ast.GoStmt:
		return x.expr(st.Call)
	case *ast.SendStmt:
		return x.expr(st.Value)
	case *ast.LabeledStmt:
		return x.stmt(st.Stmt)
	}
	return nil
}

// expr collects codec ops inside e in evaluation order (pre-order is
// source order for the flat call shapes codec methods use).
func (x *extractor) expr(e ast.Expr) []opNode {
	if e == nil {
		return nil
	}
	var out []opNode
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := x.classify(call); ok {
			out = append(out, op)
		}
		return true
	})
	return out
}

// classify maps one call expression to an op, if it involves the codec
// parameter.
func (x *extractor) classify(call *ast.CallExpr) (opNode, bool) {
	// Method on the codec parameter: e.Uint64(...), d.VarBytes().
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == x.param {
			name := sel.Sel.Name
			if ignoreMethods[name] {
				return opNode{}, false
			}
			if sym, ok := x.methods[name]; ok {
				return opNode{sym: sym, pos: call.Pos()}, true
			}
			return opNode{sym: "method:" + name, pos: call.Pos()}, true
		}
	}
	// A call that receives the codec parameter as an argument: nested
	// MarshalWire/UnmarshalWire, or a marshal/unmarshal helper pair.
	if !x.takesParam(call) {
		return opNode{}, false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "MarshalWire" || fun.Sel.Name == "UnmarshalWire" {
			return opNode{sym: "nested", pos: call.Pos()}, true
		}
		return opNode{sym: "helper:" + normalizeHelper(fun.Sel.Name), pos: call.Pos()}, true
	case *ast.Ident:
		return opNode{sym: "helper:" + normalizeHelper(fun.Name), pos: call.Pos()}, true
	}
	return opNode{}, false
}

func (x *extractor) takesParam(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok && id.Name == x.param {
			return true
		}
	}
	return false
}

// normalizeHelper maps a helper name to its pair-neutral form, so
// marshalKey/unmarshalKey (or encodeX/decodeX, writeX/readX) match.
func normalizeHelper(name string) string {
	l := strings.ToLower(name)
	for _, prefix := range []string{"marshal", "unmarshal", "encode", "decode", "write", "read"} {
		if rest, ok := strings.CutPrefix(l, prefix); ok && rest != "" {
			return rest
		}
	}
	return l
}

// compare diffs the two shapes; on mismatch it returns a message and the
// decoder-side position to report (decode is where a drifted pair is
// usually mis-edited, and the position must be stable for allow
// directives).
func compare(recv string, encOps, decOps []opNode) (string, token.Pos) {
	return compareSeq(recv, "", encOps, decOps)
}

func compareSeq(recv, path string, encOps, decOps []opNode) (string, token.Pos) {
	n := len(encOps)
	if len(decOps) < n {
		n = len(decOps)
	}
	for i := 0; i < n; i++ {
		e, d := encOps[i], decOps[i]
		switch {
		case e.leaf() && d.leaf():
			if e.sym != d.sym {
				return fmt.Sprintf("%s: op %s%d: encoder writes %s but decoder reads %s",
					recv, path, i+1, e.sym, d.sym), d.pos
			}
		case e.sym == "rep" && d.sym == "rep":
			if msg, pos := compareSeq(recv, fmt.Sprintf("%s%d/loop:", path, i+1), e.arms[0], d.arms[0]); msg != "" {
				return msg, pos
			}
		case e.sym == "branch" && d.sym == "branch":
			if len(e.arms) != len(d.arms) {
				return fmt.Sprintf("%s: op %s%d: encoder branch has %d arms but decoder has %d",
					recv, path, i+1, len(e.arms), len(d.arms)), d.pos
			}
			for a := range e.arms {
				if msg, pos := compareSeq(recv, fmt.Sprintf("%s%d/arm%d:", path, i+1, a+1), e.arms[a], d.arms[a]); msg != "" {
					return msg, pos
				}
			}
		default:
			return fmt.Sprintf("%s: op %s%d: encoder has %s but decoder has %s",
				recv, path, i+1, describe(e), describe(d)), d.pos
		}
	}
	if len(encOps) > len(decOps) {
		extra := encOps[len(decOps)]
		return fmt.Sprintf("%s: encoder writes %d ops%s but decoder reads %d (first unread: %s)",
			recv, len(encOps), pathSuffix(path), len(decOps), describe(extra)), extra.pos
	}
	if len(decOps) > len(encOps) {
		extra := decOps[len(encOps)]
		return fmt.Sprintf("%s: decoder reads %d ops%s but encoder writes %d (first unwritten: %s)",
			recv, len(decOps), pathSuffix(path), len(encOps), describe(extra)), extra.pos
	}
	return "", token.NoPos
}

func pathSuffix(path string) string {
	if path == "" {
		return ""
	}
	return " at " + strings.TrimSuffix(path, ":")
}

func describe(n opNode) string {
	if n.leaf() {
		return n.sym
	}
	return n.sym + " group"
}
