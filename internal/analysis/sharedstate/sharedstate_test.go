package sharedstate

import (
	"path/filepath"
	"strings"
	"testing"

	"flextoe/internal/analysis/flexanalysis"
)

// load runs the pass over the sstest fixture and indexes the inventory.
func load(t *testing.T) map[string]Var {
	t.Helper()
	l := flexanalysis.NewLoader()
	dir := filepath.Join("testdata", "src", "sstest")
	pkg, err := l.Load(dir, "flextoe/internal/core/sstest")
	if err != nil {
		t.Fatal(err)
	}
	results, err := flexanalysis.RunPackage(pkg, []*flexanalysis.Analyzer{Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(results[0].Diags); n != 0 {
		t.Fatalf("sharedstate reported %d diagnostics, want 0 (reporting-only pass)", n)
	}
	vars, ok := results[0].Value.([]Var)
	if !ok {
		t.Fatalf("pass value is %T, want []Var", results[0].Value)
	}
	byName := map[string]Var{}
	for _, v := range vars {
		byName[v.Name] = v
	}
	return byName
}

func TestClassification(t *testing.T) {
	vars := load(t)
	want := map[string]string{
		"entryFree": "pool",
		"PoolStats": "stats",
		"lockbox":   "synchronized",
		"seedTable": "immutable-after-init",
		"registry":  "shared-mutable",
		"limit":     "shared-mutable",
	}
	if len(vars) != len(want) {
		t.Errorf("inventory has %d vars, want %d: %v", len(vars), len(want), vars)
	}
	for name, class := range want {
		v, ok := vars[name]
		if !ok {
			t.Errorf("var %s missing from inventory", name)
			continue
		}
		if v.Class != class {
			t.Errorf("%s classified %s, want %s", name, v.Class, class)
		}
	}
}

func TestWriteSites(t *testing.T) {
	vars := load(t)
	cases := map[string][]string{
		"entryFree": {"alloc", "free"}, // method calls via pointer receiver
		"PoolStats": {"alloc"},         // field IncDec
		"lockbox":   {"touchLock"},     // pointer-receiver method call
		"seedTable": nil,               // init-only
		"registry":  {"register"},      // assignment + element store
		"limit":     {"setLimit"},      // address escape
	}
	for name, writers := range cases {
		got := vars[name].Writers
		if strings.Join(got, ",") != strings.Join(writers, ",") {
			t.Errorf("%s writers = %v, want %v", name, got, writers)
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	a := load(t)
	b := load(t)
	var av, bv []Var
	for _, v := range a {
		av = append(av, v)
	}
	for _, v := range b {
		bv = append(bv, v)
	}
	ra, rb := Report(av), Report(bv)
	if ra != rb {
		t.Error("Report output differs across identical runs")
	}
	for _, frag := range []string{
		"# SHAREDSTATE", "## Summary", "## Inventory",
		"flextoe/internal/core/sstest",
		"`entryFree`", "per-engine instance",
	} {
		if !strings.Contains(ra, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}
