package wiresym_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atum/internal/lint/analysis"
	"atum/internal/lint/linttest"
	"atum/internal/lint/wiresym"
)

func TestPairFixtures(t *testing.T) {
	linttest.Run(t, wiresym.Analyzer, "testdata/pairs", "")
}

// TestMutationTripsWiresym drills the invariant the analyzer exists for:
// swapping two encoder writes in one production marshal pair must make
// atumvet fail. It copies internal/core/wirecodec.go, checks the pristine
// copy is clean, swaps the first two writes of gossipPayload.MarshalWire,
// and checks the analyzer reports the pair.
func TestMutationTripsWiresym(t *testing.T) {
	const target = "gossipPayload"
	src := filepath.Join("..", "..", "core", "wirecodec.go")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}

	pristine := t.TempDir()
	if err := os.WriteFile(filepath.Join(pristine, "wirecodec.go"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if diags := runWiresym(t, pristine); len(diags) != 0 {
		t.Fatalf("pristine wirecodec.go not clean: %v", diags)
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, data, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	l1, l2 := 0, 0
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "MarshalWire" || recvName(fn) != target {
			continue
		}
		if len(fn.Body.List) < 2 {
			t.Fatalf("%s.MarshalWire has %d statements, need at least 2 to swap", target, len(fn.Body.List))
		}
		l1 = fset.Position(fn.Body.List[0].Pos()).Line
		l2 = fset.Position(fn.Body.List[1].Pos()).Line
	}
	if l1 == 0 {
		t.Fatalf("no %s.MarshalWire in %s", target, src)
	}

	lines := strings.Split(string(data), "\n")
	lines[l1-1], lines[l2-1] = lines[l2-1], lines[l1-1]
	mutated := t.TempDir()
	if err := os.WriteFile(filepath.Join(mutated, "wirecodec.go"), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	diags := runWiresym(t, mutated)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, target) {
			found = true
		}
	}
	if !found {
		t.Fatalf("swapped %s.MarshalWire lines %d and %d but wiresym stayed quiet (diags: %v)", target, l1, l2, diags)
	}
}

func runWiresym(t *testing.T, dir string) []analysis.Diagnostic {
	t.Helper()
	units, err := analysis.Load(dir, ".")
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	diags, err := analysis.Run(units, []*analysis.Analyzer{wiresym.Analyzer})
	if err != nil {
		t.Fatalf("run wiresym on %s: %v", dir, err)
	}
	return diags
}

func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
