// Selfcheck: run the full flexvet suite in-process over every package in
// the module. This is the same gate CI applies via cmd/flexvet, kept in
// `go test ./...` so the contracts fail fast during development too.
package analysis_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"flextoe/internal/analysis/detrange"
	"flextoe/internal/analysis/flexanalysis"
	"flextoe/internal/analysis/hotclosure"
	"flextoe/internal/analysis/poolown"
	"flextoe/internal/analysis/sharedstate"
	"flextoe/internal/analysis/viewretain"
)

var enforcing = []*flexanalysis.Analyzer{
	viewretain.Analyzer,
	poolown.Analyzer,
	detrange.Analyzer,
	hotclosure.Analyzer,
}

// tree is the module loaded once and shared by every test here: loading
// and type-checking the whole module dominates this package's run time.
var tree struct {
	once sync.Once
	root string
	pkgs []*flexanalysis.Package
	err  error
}

// loadTree returns the module root and every package in the module (the
// CLI's ./... pattern), loading them on first use.
func loadTree(t *testing.T) (string, []*flexanalysis.Package) {
	t.Helper()
	tree.once.Do(func() {
		cwd, err := os.Getwd()
		if err != nil {
			tree.err = err
			return
		}
		var modPath string
		if tree.root, modPath, err = flexanalysis.ModuleRoot(cwd); err != nil {
			tree.err = err
			return
		}
		tree.pkgs, tree.err = flexanalysis.NewLoader().LoadAll(tree.root, modPath)
	})
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	if len(tree.pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(tree.pkgs))
	}
	return tree.root, tree.pkgs
}

// TestTreeClean asserts the real tree has zero unsuppressed diagnostics
// from the four enforcing passes.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	_, pkgs := loadTree(t)
	for _, pkg := range pkgs {
		results, err := flexanalysis.RunPackage(pkg, enforcing)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, res := range results {
			for _, d := range res.Diags {
				t.Errorf("%s: %s: %s", d.Posn(pkg.Fset), d.Analyzer, d.Message)
			}
		}
	}
}

// TestSharedStateReportCurrent regenerates the shared-state inventory and
// compares it to the committed SHAREDSTATE.md. On drift:
//
//	go run ./cmd/flexvet -sharedstate ./... > SHAREDSTATE.md
func TestSharedStateReportCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	root, pkgs := loadTree(t)
	var inventory []sharedstate.Var
	for _, pkg := range pkgs {
		results, err := flexanalysis.RunPackage(pkg, []*flexanalysis.Analyzer{sharedstate.Analyzer})
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		vs, ok := results[0].Value.([]sharedstate.Var)
		if !ok {
			t.Fatalf("%s: pass value is %T, want []Var", pkg.Path, results[0].Value)
		}
		inventory = append(inventory, vs...)
	}
	want := sharedstate.Report(inventory)
	got, err := os.ReadFile(root + "/SHAREDSTATE.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("SHAREDSTATE.md is stale; regenerate with:\n\tgo run ./cmd/flexvet -sharedstate ./... > SHAREDSTATE.md\n%s",
			firstDiff(string(got), want))
	}
}

func firstDiff(a, b string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first difference at byte %d:\n  committed: %q\n  generated: %q",
				i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
		}
	}
	return fmt.Sprintf("lengths differ: committed %d bytes, generated %d bytes", len(a), len(b))
}
