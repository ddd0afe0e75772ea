package actorconfine_test

import (
	"os"
	"path/filepath"
	"testing"

	"atum/internal/lint/actorconfine"
	"atum/internal/lint/analysis"
	"atum/internal/lint/linttest"
)

func TestConfineFixtures(t *testing.T) {
	linttest.RunModule(t, actorconfine.Analyzer, filepath.Join("testdata", "confine"))
}

// TestMutationTripsActorconfine seeds a confinement violation into a
// throwaway copy of the real repo — in the engine and in its egress port — and
// proves the analyzer catches it on real code, not just on fixtures.
func TestMutationTripsActorconfine(t *testing.T) {
	root := linttest.CopyModule(t, filepath.Join("..", "..", ".."))
	mutants := map[string]string{
		"core":   "package core\n\nfunc (n *Node) zzLeakTick() {\n\tgo n.handleTick()\n}\n",
		"egress": "package egress\n\nfunc (p *Port) zzLeakFlush() {\n\tgo p.FlushDeferred()\n}\n",
	}
	for pkg, src := range mutants {
		if err := os.WriteFile(filepath.Join(root, "internal", pkg, "zz_mutation.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		units, err := analysis.Load(root, "./internal/"+pkg)
		if err != nil {
			t.Fatalf("load mutated repo: %v", err)
		}
		diags, err := analysis.Run(units, []*analysis.Analyzer{actorconfine.Analyzer})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var hit bool
		for _, d := range diags {
			if filepath.Base(d.Pos.Filename) == "zz_mutation.go" {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("seeded goroutine in %s went undetected; diagnostics: %v", pkg, diags)
		}
	}
}
