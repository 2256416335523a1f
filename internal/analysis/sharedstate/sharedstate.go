// Package sharedstate is the reporting pass behind the concurrency
// contract (doc.go "Concurrency"): each testbed runs on one sim.Engine,
// and independent engines run concurrently — sweep cells on a worker
// pool, service jobs on the job pool — so every piece of state reachable
// from more than one engine has to be known and classified. In this
// codebase each simulated host/TOE hangs off its own struct, so the
// cross-engine mutable surface is exactly the package-level variable set
// — global pools, global counters, and any other package state shared by
// all instances.
//
// The pass inventories every package-level `var` and classifies it:
//
//   - pool: a global object pool (shm.Freelist, shm.Slab, or a struct
//     wrapping them). Single-threaded by design, so concurrent engines
//     need a per-engine instance or a lock-free variant.
//   - stats: global counters written on the hot path (PoolStats and
//     friends). Concurrent engines need per-engine counters, or the gates
//     lose bit-determinism.
//   - synchronized: carries its own sync/atomic machinery (the netsim
//     interface-ID allocator, whose per-testbed relative order is all the
//     event tie-break needs).
//   - entry-confined: annotated `//flexvet:sharedstate entry-confined
//     <why>` in the var's doc comment — a default instance reached only
//     from single-threaded entry points (tests, examples, standalone
//     tools), while every hot path uses the per-engine instance
//     (sim.Engine.Local). The annotation is an audited claim: the why is
//     committed to SHAREDSTATE.md with the var.
//   - immutable-after-init: written only by initializer expressions or
//     init functions; safe to share read-only across engines.
//   - shared-mutable: everything else — written at runtime from ordinary
//     functions; each one needs an explicit decision before engines may
//     touch it concurrently.
//
// Unlike the four enforcing passes, sharedstate reports no diagnostics:
// its Run result is the inventory ([]Var), and cmd/flexvet -sharedstate
// renders the deterministic report committed as SHAREDSTATE.md (kept in
// sync by the repo-level flexvet test).
package sharedstate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flextoe/internal/analysis/flexanalysis"
)

// Analyzer is the sharedstate pass.
var Analyzer = &flexanalysis.Analyzer{
	Name: "sharedstate",
	Doc: "inventory package-level mutable state and classify it for the " +
		"concurrently running engines (pool / stats / synchronized / entry-confined / " +
		"immutable-after-init / shared-mutable)",
	Run: run,
}

// Var is one package-level variable in the inventory.
type Var struct {
	Pkg     string // import path
	Name    string
	Type    string   // rendered with package-qualified names
	Class   string   // pool | stats | synchronized | entry-confined | immutable-after-init | shared-mutable
	Writers []string // functions performing non-init writes (sorted, deduped)
	Pos     string   // file:line, path relative to the package directory
	Doc     string   // first sentence of the var's doc comment, if any
}

// EngineNote maps a classification to the action concurrently running
// engines need.
func EngineNote(class string) string {
	switch class {
	case "pool":
		return "per-engine instance (freelists are single-threaded by design)"
	case "stats":
		return "per-engine counters"
	case "synchronized":
		return "already synchronized; audit that only per-testbed relative order matters"
	case "entry-confined":
		return "single-threaded entry points only; hot paths use the per-engine instance (Engine.Local)"
	case "immutable-after-init":
		return "share read-only"
	default:
		return "explicit decision required before engines share it"
	}
}

func run(pass *flexanalysis.Pass) (any, error) {
	// Collect package-level vars.
	vars := map[types.Object]*Var{}
	confined := map[types.Object]bool{}
	qualifier := func(p *types.Package) string { return p.Name() }
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj := pass.TypesInfo.ObjectOf(name)
					if obj == nil || obj.Parent() != pass.Pkg.Scope() {
						continue
					}
					pos := pass.Fset.Position(name.Pos())
					file := pos.Filename
					if i := strings.LastIndexByte(file, '/'); i >= 0 {
						file = file[i+1:]
					}
					vars[obj] = &Var{
						Pkg:  pass.Pkg.Path(),
						Name: name.Name,
						Type: types.TypeString(obj.Type(), qualifier),
						Pos:  fmt.Sprintf("%s:%d", file, pos.Line),
						Doc:  docSentence(gd, vs),
					}
					if confinedDirective(gd, vs) {
						confined[obj] = true
					}
				}
			}
		}
	}
	if len(vars) == 0 {
		return []Var(nil), nil
	}

	// Find non-init writes: direct assignment, content mutation
	// (field/element stores, IncDec), address escape, and pointer-receiver
	// method calls on the var.
	writers := map[types.Object]map[string]bool{}
	note := func(obj types.Object, fn string) {
		if _, tracked := vars[obj]; !tracked {
			return
		}
		if writers[obj] == nil {
			writers[obj] = map[string]bool{}
		}
		writers[obj][fn] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnName := funcLabel(fd)
			isInit := fd.Name.Name == "init" && fd.Recv == nil
			if isInit {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if obj := baseVar(pass, lhs); obj != nil {
							note(obj, fnName)
						}
					}
				case *ast.IncDecStmt:
					if obj := baseVar(pass, st.X); obj != nil {
						note(obj, fnName)
					}
				case *ast.UnaryExpr:
					if st.Op == token.AND {
						if obj := baseVar(pass, st.X); obj != nil {
							note(obj, fnName)
						}
					}
				case *ast.CallExpr:
					if sel, ok := st.Fun.(*ast.SelectorExpr); ok {
						selection := pass.TypesInfo.Selections[sel]
						if selection != nil && selection.Kind() == types.MethodVal {
							if fn, ok := selection.Obj().(*types.Func); ok && ptrReceiver(fn) {
								if obj := baseVar(pass, sel.X); obj != nil {
									note(obj, fnName)
								}
							}
						}
					}
				}
				return true
			})
		}
	}

	// Classify.
	var out []Var
	for obj, v := range vars {
		w := writers[obj]
		v.Writers = sortedKeys(w)
		if confined[obj] {
			// The directive is an audited claim that outranks the type
			// rules: a default pool stays a pool structurally, but its
			// story is "never reached from an engine's hot path".
			v.Class = "entry-confined"
		} else {
			v.Class = classify(obj.Type(), v.Name, len(w) > 0)
		}
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// baseVar unwraps an lvalue/operand to the package-level var at its base:
// V, V.f, V[i], V.f[i].g ... (stops at the root identifier).
func baseVar(pass *flexanalysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(x)
			if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			// Qualified package identifier (pkg.Var) resolves via Sel.
			if _, isPkg := pass.TypesInfo.ObjectOf(baseIdent(x.X)).(*types.PkgName); isPkg {
				return nil // other package's var: its own pass reports it
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func baseIdent(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

func ptrReceiver(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	_, isPtr := recv.Type().(*types.Pointer)
	return isPtr
}

func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// classify buckets one variable. Type-based rules run first (a pool is a
// pool even when only init writes it), then write-based mutability.
func classify(t types.Type, name string, written bool) string {
	if isPoolType(t) {
		return "pool"
	}
	if containsSync(t, 0) {
		return "synchronized"
	}
	if strings.Contains(name, "Stats") || strings.Contains(name, "stats") {
		return "stats"
	}
	if !written {
		return "immutable-after-init"
	}
	return "shared-mutable"
}

func isPoolType(t types.Type) bool {
	for _, n := range []string{"Freelist", "Slab", "Pool"} {
		if flexanalysis.NamedIs(t, "flextoe/internal/shm", n) {
			return true
		}
	}
	return false
}

// containsSync detects sync/atomic machinery in the type's struct fields.
func containsSync(t types.Type, depth int) bool {
	if depth > 3 {
		return false
	}
	if n := flexanalysis.NamedType(t); n != nil {
		if pkg := n.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync", "sync/atomic":
				return true
			}
		}
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if containsSync(s.Field(i).Type(), depth+1) {
			return true
		}
	}
	return false
}

// confinedDirective reports whether the var's doc comment carries the
// `//flexvet:sharedstate entry-confined` directive.
func confinedDirective(gd *ast.GenDecl, vs *ast.ValueSpec) bool {
	for _, doc := range []*ast.CommentGroup{vs.Doc, vs.Comment, gd.Doc} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if strings.HasPrefix(c.Text, "//flexvet:sharedstate entry-confined") {
				return true
			}
		}
	}
	return false
}

// docSentence extracts the first sentence of the var's doc comment.
func docSentence(gd *ast.GenDecl, vs *ast.ValueSpec) string {
	doc := vs.Doc
	if doc == nil {
		doc = gd.Doc
	}
	if doc == nil {
		return ""
	}
	text := strings.TrimSpace(doc.Text())
	if i := strings.IndexAny(text, ".\n"); i >= 0 {
		text = text[:i]
	}
	return strings.Join(strings.Fields(text), " ")
}

// Report renders the full-tree inventory as the committed SHAREDSTATE.md.
// Input is the concatenated per-package inventories; output is
// deterministic (sorted by package, then name).
func Report(all []Var) string {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pkg != all[j].Pkg {
			return all[i].Pkg < all[j].Pkg
		}
		return all[i].Name < all[j].Name
	})
	var b strings.Builder
	b.WriteString("# SHAREDSTATE — package-level mutable state inventory\n\n")
	b.WriteString("Generated by `flexvet -sharedstate ./...` (the sharedstate pass); kept in\n")
	b.WriteString("sync by `TestSharedStateReportCurrent`. Do not edit by hand.\n\n")
	b.WriteString("Every simulated host/TOE hangs off its own struct, so the variables below\n")
	b.WriteString("are exactly the state shared across all of them. Each testbed runs on one\n")
	b.WriteString("engine and engines run concurrently (sweep cells, service jobs; doc.go\n")
	b.WriteString("\"Concurrency\"), so this surface is kept per engine (pool/stats:\n")
	b.WriteString("per-engine instances via sim.Engine.Local), confined to single-threaded\n")
	b.WriteString("entry points (entry-confined), or left safely shared.\n\n")

	counts := map[string]int{}
	for _, v := range all {
		counts[v.Class]++
	}
	b.WriteString("## Summary\n\n")
	b.WriteString("| class | count | action |\n|---|---|---|\n")
	for _, class := range []string{"pool", "stats", "synchronized", "entry-confined", "shared-mutable", "immutable-after-init"} {
		if counts[class] == 0 {
			continue
		}
		fmt.Fprintf(&b, "| %s | %d | %s |\n", class, counts[class], EngineNote(class))
	}
	b.WriteString("\n## Inventory\n\n")

	lastPkg := ""
	for _, v := range all {
		if v.Pkg != lastPkg {
			if lastPkg != "" {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "### %s\n\n", v.Pkg)
			b.WriteString("| var | type | class | written by | where |\n|---|---|---|---|---|\n")
			lastPkg = v.Pkg
		}
		writers := strings.Join(v.Writers, ", ")
		if writers == "" {
			writers = "—"
		}
		fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s | %s |\n",
			v.Name, v.Type, v.Class, writers, v.Pos)
	}
	return b.String()
}
