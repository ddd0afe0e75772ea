// Package retainview machine-checks the zero-copy aliasing contract: the
// byte slices returned by wire.Decoder.VarBytesView alias the decode input,
// and the buffer behind a pooled encoder's Bytes() is recycled by
// PutEncoder. Such views are only valid inside the callback or decode scope
// that produced them; code that wants to keep the bytes must copy (append to
// a fresh buffer) or use Detach. The analyzer flags the three escape shapes
// that turn a view into a use-after-recycle bug:
//
//   - storing a view through a receiver, parameter, or package-level
//     variable (the store outlives the frame that owns the buffer),
//   - sending a view on a channel (the receiver runs later),
//   - handing a view to a spawned goroutine (it runs after return).
//
// Taint is tracked syntactically and conservatively per function: a view
// stays a view through renames, slicing, and composite-literal wrapping;
// any other call boundary — append, copy, string conversion, hashing —
// copies the bytes and launders the taint. Stores into function-local
// structures are not flagged: the local decode-state idiom (a decoded item
// whose payload field views the frame) is the contract's intended use.
package retainview

import (
	"go/ast"
	"go/token"

	"atum/internal/lint/analysis"
)

// Analyzer is the retainview pass.
var Analyzer = &analysis.Analyzer{
	Name:      "retainview",
	Doc:       "check that decoder views (VarBytesView) and pooled encoder bytes do not escape their owning scope without a copy or Detach",
	SkipTests: true, // tests legitimately hold views to assert the aliasing contract itself
	Run:       run,
}

func run(pass *analysis.Pass) error {
	pkgVars := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, n := range vs.Names {
						pkgVars[n.Name] = true
					}
				}
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sc := &scope{
				pass:    pass,
				pkgVars: pkgVars,
				roots:   map[string]bool{},
				tainted: map[string]bool{},
				pooled:  map[string]bool{},
			}
			if fn.Recv != nil {
				for _, field := range fn.Recv.List {
					for _, n := range field.Names {
						sc.roots[n.Name] = true
					}
				}
			}
			addParams(sc.roots, fn.Type)
			sc.stmts(fn.Body.List)
		}
	}
	return nil
}

func addParams(roots map[string]bool, ft *ast.FuncType) {
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, n := range field.Names {
				roots[n.Name] = true
			}
		}
	}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			for _, n := range field.Names {
				roots[n.Name] = true
			}
		}
	}
}

// scope is the per-function (or per-literal) taint state.
type scope struct {
	pass    *analysis.Pass
	pkgVars map[string]bool
	roots   map[string]bool // receiver, params, named results: stores through these escape
	tainted map[string]bool // locals currently holding a view
	pooled  map[string]bool // locals holding a pooled encoder (GetEncoder)
}

func (sc *scope) stmts(list []ast.Stmt) {
	for _, s := range list {
		sc.stmt(s)
	}
}

func (sc *scope) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		sc.stmts(st.List)
	case *ast.AssignStmt:
		sc.assign(st)
		sc.funcLits(st)
	case *ast.DeclStmt:
		sc.declare(st)
		sc.funcLits(st)
	case *ast.IfStmt:
		if st.Init != nil {
			sc.stmt(st.Init)
		}
		sc.funcLitsExpr(st.Cond)
		sc.stmts(st.Body.List)
		if st.Else != nil {
			sc.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			sc.stmt(st.Init)
		}
		sc.stmts(st.Body.List)
	case *ast.RangeStmt:
		// Ranging over a tainted slice yields tainted sub-views only for
		// [][]byte shapes the codebase does not use; keys/values start clean.
		if key, ok := st.Key.(*ast.Ident); ok {
			delete(sc.tainted, key.Name)
		}
		if val, ok := st.Value.(*ast.Ident); ok {
			delete(sc.tainted, val.Name)
		}
		sc.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			sc.stmt(st.Init)
		}
		for _, c := range st.Body.List {
			sc.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			sc.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				sc.stmt(cc.Comm)
			}
			sc.stmts(cc.Body)
		}
	case *ast.SendStmt:
		if pos, ok := sc.retained(st.Value); ok {
			sc.pass.Reportf(pos, "sends a decoder/pool-owned view on a channel; the receiver outlives the buffer — copy or Detach first")
		}
	case *ast.GoStmt:
		sc.goStmt(st)
	case *ast.ExprStmt:
		sc.funcLitsExpr(st.X)
	case *ast.ReturnStmt:
		// Returning a view hands the aliasing contract to the caller; the
		// wire package itself does this by design, so returns are not
		// flagged — the caller's stores are.
		for _, r := range st.Results {
			sc.funcLitsExpr(r)
		}
	case *ast.DeferStmt:
		sc.funcLitsExpr(st.Call)
	case *ast.LabeledStmt:
		sc.stmt(st.Stmt)
	}
}

// assign updates taint for ident targets and reports view stores through
// escaping roots.
func (sc *scope) assign(st *ast.AssignStmt) {
	for i, lh := range st.Lhs {
		var rh ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rh = st.Rhs[i]
		}
		// len mismatch means a single multi-value call on the RHS; calls
		// other than the view sources produce owned values, clearing taint.
		viewPos, isView := token.NoPos, false
		if rh != nil {
			viewPos, isView = sc.retained(rh)
		}
		switch target := lh.(type) {
		case *ast.Ident:
			if target.Name == "_" {
				continue
			}
			if isView {
				sc.tainted[target.Name] = true
			} else {
				delete(sc.tainted, target.Name)
			}
			if rh != nil && isGetEncoder(rh) {
				sc.pooled[target.Name] = true
			} else {
				delete(sc.pooled, target.Name)
			}
		default:
			if !isView {
				continue
			}
			root := rootIdent(lh)
			if root == "" || sc.roots[root] || sc.pkgVars[root] {
				sc.pass.Reportf(viewPos, "stores a decoder/pool-owned view through %s, which outlives the decode scope; copy (append to a fresh buffer) or Detach before retaining", describeRoot(root))
			}
		}
	}
}

func (sc *scope) declare(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			isView := false
			if len(vs.Values) == len(vs.Names) {
				_, isView = sc.retained(vs.Values[i])
				if isGetEncoder(vs.Values[i]) {
					sc.pooled[name.Name] = true
				}
			}
			if isView {
				sc.tainted[name.Name] = true
			} else {
				delete(sc.tainted, name.Name)
			}
		}
	}
}

// goStmt flags views handed to a spawned goroutine, either as call
// arguments or as captures of a function literal.
func (sc *scope) goStmt(st *ast.GoStmt) {
	for _, a := range st.Call.Args {
		if pos, ok := sc.retained(a); ok {
			sc.pass.Reportf(pos, "passes a decoder/pool-owned view to a goroutine, which runs after the buffer is recycled; copy or Detach first")
		}
	}
	lit, ok := st.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	shadowed := map[string]bool{}
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, n := range field.Names {
				shadowed[n.Name] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if ok && sc.tainted[id.Name] && !shadowed[id.Name] {
			sc.pass.Reportf(id.Pos(), "goroutine captures decoder/pool-owned view %s, which is recycled before the goroutine runs; copy or Detach first", id.Name)
			return true
		}
		return true
	})
	sc.analyzeLit(lit)
}

// funcLits analyzes function literals nested in a statement (callbacks,
// assigned closures) with the enclosing escape roots and taint visible.
func (sc *scope) funcLits(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			sc.analyzeLit(lit)
			return false
		}
		return true
	})
}

func (sc *scope) funcLitsExpr(e ast.Expr) {
	if e == nil {
		return
	}
	sc.funcLits(e)
}

func (sc *scope) analyzeLit(lit *ast.FuncLit) {
	inner := &scope{
		pass:    sc.pass,
		pkgVars: sc.pkgVars,
		roots:   map[string]bool{},
		tainted: map[string]bool{},
		pooled:  map[string]bool{},
	}
	for k := range sc.roots {
		inner.roots[k] = true
	}
	for k := range sc.tainted {
		inner.tainted[k] = true
	}
	for k := range sc.pooled {
		inner.pooled[k] = true
	}
	addParams(inner.roots, lit.Type)
	inner.stmts(lit.Body.List)
}

// retained reports whether e evaluates to view-owned bytes: a view-source
// call, a tainted local (possibly sliced or parenthesized), or a
// composite literal wrapping one. Any other call boundary copies.
func (sc *scope) retained(e ast.Expr) (token.Pos, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		if sc.tainted[v.Name] {
			return v.Pos(), true
		}
	case *ast.ParenExpr:
		return sc.retained(v.X)
	case *ast.SliceExpr:
		return sc.retained(v.X)
	case *ast.UnaryExpr:
		return sc.retained(v.X)
	case *ast.KeyValueExpr:
		return sc.retained(v.Value)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			if pos, ok := sc.retained(elt); ok {
				return pos, true
			}
		}
	case *ast.CallExpr:
		if sc.isViewCall(v) {
			return v.Pos(), true
		}
	}
	return token.NoPos, false
}

// isViewCall recognizes the view sources: d.VarBytesView(), and Bytes() on
// an encoder obtained from the pool.
func (sc *scope) isViewCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "VarBytesView":
		return true
	case "Bytes":
		if id, ok := sel.X.(*ast.Ident); ok {
			return sc.pooled[id.Name]
		}
	}
	return false
}

// isGetEncoder recognizes wire.GetEncoder() (or a dot-imported
// GetEncoder()).
func isGetEncoder(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "GetEncoder"
	case *ast.Ident:
		return fun.Name == "GetEncoder"
	}
	return false
}

// rootIdent finds the base identifier of an assignment target chain:
// s.buf → s, m[k] → m, (*p).f → p.
func rootIdent(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v.Name
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return ""
		}
	}
}

func describeRoot(root string) string {
	if root == "" {
		return "an escaping reference"
	}
	return root
}
