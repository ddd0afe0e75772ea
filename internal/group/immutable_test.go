package group

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The packages a composition crosses, relative to this one. In the engine's
// (noClones) a .Clone() is a copy the engine keeps, unless it is a hand-off.
var compositionHolders = []struct {
	dir      string
	noClones bool
}{
	{dir: "../.."},
	{dir: "../../ashare"},
	{dir: "../../astream"},
	{dir: "../../asub"},
	{dir: "../core", noClones: true},
	{dir: "../egress", noClones: true},
	{dir: "."},
	{dir: "../overlay", noClones: true},
}

// handOffs are the functions whose .Clone() hands a copy to the application;
// so is a .Clone() passed to an OnJoined callback.
var handOffs = map[string]bool{"Node.Comp": true, "Node.Neighbors": true, "Neighbors.Clone": true}

// sliceWriters are the functions of sort, slices and ids that write into the
// slice they are handed first.
var sliceWriters = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true, "slices.Reverse": true,
	"slices.Delete": true, "slices.DeleteFunc": true, "slices.Insert": true, "slices.Replace": true,
	"slices.Compact": true, "slices.CompactFunc": true, "ids.SortIdentities": true,
}

// identityPointerMethods are the methods of ids.Identity with a pointer
// receiver: called on an element of Members, each may write into it.
var identityPointerMethods = map[string]bool{"Wire": true}

// TestCompositionsAreNeverWritten checks the rule on group.Composition over
// the non-test files of every package a composition crosses: nothing writes
// into a Members slice once a composition exists — no assignment, copy or
// clear into it, no append to it, no sort or other in-place rewrite of it and
// no pointer-method call on one of its elements (Composition.Wire's decode,
// which builds Members, aside). Nothing writes into a member's public key
// either — no index assignment, copy or clear into a PubKey, no append to one
// and no in-place rewrite of one — for the compositions a node holds share
// each key's bytes. And the engine keeps no copies: core, egress and overlay
// call .Clone() only where a composition leaves for the application.
func TestCompositionsAreNeverWritten(t *testing.T) {
	for _, pkg := range compositionHolders {
		files, err := filepath.Glob(filepath.Join(pkg.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := funcName(fd)
				if name == "Composition.Wire" {
					continue // its decode builds Members
				}
				for _, v := range compositionWrites(fd.Body) {
					t.Errorf("%s: %s in %s writes into %s", fset.Position(v.Pos()), v.what, name, v.into)
				}
				if pkg.noClones && !handOffs[name] {
					for _, c := range engineClones(fd.Body) {
						t.Errorf("%s: %s copies a composition inside the engine: share it, it is never written", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		if parsed == 0 {
			t.Fatalf("no Go files in %s", pkg.dir)
		}
	}
}

// funcName returns Recv.Name for a method and Name for a function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// inPubKey reports whether e is a PubKey selector, or a slice of one; with
// indexed, whether e indexes into one.
func inPubKey(e ast.Expr, indexed bool) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x.Sel.Name == "PubKey" && !indexed
		case *ast.IndexExpr:
			e, indexed = x.X, false
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// inMembers reports whether e is a Members selector or reaches into one
// through indexing, slicing or field selection.
func inMembers(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "Members" {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

type violation struct {
	ast.Node
	what, into string
}

const (
	intoMembers = "a composition's Members"
	intoPubKey  = "a member's PubKey"
)

// compositionWrites returns the writes into a Members slice or a PubKey in
// body.
func compositionWrites(body *ast.BlockStmt) []violation {
	var out []violation
	written := func(e ast.Expr, indexed bool) string {
		switch {
		case inMembers(e):
			return intoMembers
		case inPubKey(e, indexed):
			return intoPubKey
		}
		return ""
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if into := written(lhs, true); into != "" {
					out = append(out, violation{s, "an assignment", into})
				}
			}
		case *ast.IncDecStmt:
			if into := written(s.X, true); into != "" {
				out = append(out, violation{s, "an increment", into})
			}
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
				if identityPointerMethods[sel.Sel.Name] && inMembers(sel.X) {
					out = append(out, violation{s, "a pointer-method call", intoMembers})
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && len(s.Args) > 0 && sliceWriters[pkg.Name+"."+sel.Sel.Name] {
					if into := written(s.Args[0], false); into != "" {
						out = append(out, violation{s, pkg.Name + "." + sel.Sel.Name, into})
					}
				}
			}
			if fn, ok := s.Fun.(*ast.Ident); ok && len(s.Args) > 0 && (fn.Name == "copy" || fn.Name == "clear" || fn.Name == "append") {
				if into := written(s.Args[0], false); into != "" {
					out = append(out, violation{s, fn.Name, into})
				}
			}
		}
		return true
	})
	return out
}

// engineClones returns the .Clone() method calls in body, except those handed
// to an OnJoined callback.
func engineClones(body *ast.BlockStmt) []ast.Node {
	handed := map[ast.Node]bool{}
	var out []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "OnJoined" {
				for _, a := range call.Args {
					handed[a] = true
				}
			}
			if sel.Sel.Name == "Clone" && len(call.Args) == 0 && !handed[call] {
				out = append(out, call)
			}
		}
		return true
	})
	return out
}
