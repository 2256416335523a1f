// Package poolown enforces the pooled single-ownership contract (package
// packet docs, doc.go "Pooling ownership", PR 3): a pooled object —
// packet (packet.Get), frame (netsim.NewFrame), segment item
// ((*TOE).allocSeg), or anything drawn from a shm.Freelist / shm.Slab —
// or timer carrier (getTimer/putTimer in ctrl and baseline, PR 8) —
// has exactly one owner at a time. Whoever terminates its journey
// releases it exactly once and must not touch it afterwards.
//
// The pass tracks pooled values through local dataflow and flags:
//
//   - Leak: a value acquired from a pool that is neither released nor
//     handed off anywhere in the function. Handoff is any plausible
//     ownership transfer — the value passed as a call argument, returned,
//     assigned (to a field, element, global, or another variable), placed
//     in a composite literal, sent on a channel, or captured by a func
//     literal. The check is flow-insensitive and conservative: one
//     handoff anywhere clears the function.
//   - Double release: a second Release/ReleaseFrame/putSeg/Put on the
//     same variable with no intervening re-acquisition. The pool would
//     hand one object to two owners.
//   - Use after release: any use of the variable after its release on the
//     linear path (conservative branch union, see
//     flexanalysis.WalkLinear). Ownership ended at the release.
//
// Interprocedural ownership (release via a helper that stores the value
// first) is deliberately out of scope — a handoff transfers the
// obligation to the callee/holder. The flexdebug build tag provides the
// runtime complement: poisoned pools that panic on double-release and
// use-after-release. A correct-but-flagged site may carry
// //flexvet:poolown <why>.
package poolown

import (
	"go/ast"
	"go/types"

	"flextoe/internal/analysis/flexanalysis"
)

// Analyzer is the poolown pass.
var Analyzer = &flexanalysis.Analyzer{
	Name: "poolown",
	Doc: "track pooled values (packets, frames, segItems, freelist objects) " +
		"through local dataflow: flag leaks, double releases, and use after release",
	Run: run,
}

const (
	pktPkg    = "flextoe/internal/packet"
	netsimPkg = "flextoe/internal/netsim"
	shmPkg    = "flextoe/internal/shm"
)

// acquireCall recognizes pool acquisitions and names the pool.
func acquireCall(pass *flexanalysis.Pass, call *ast.CallExpr) (pool string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		// Unqualified call inside the defining package (getFrame()).
		if id, isIdent := call.Fun.(*ast.Ident); isIdent {
			if fn, isFn := pass.TypesInfo.Uses[id].(*types.Func); isFn && fn.Pkg() != nil {
				return acquireFunc(fn)
			}
		}
		return "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil {
		// Package-qualified: packet.Get, netsim.NewFrame.
		if fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFn && fn.Pkg() != nil {
			return acquireFunc(fn)
		}
		return "", false
	}
	if selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := selection.Recv()
	switch sel.Sel.Name {
	case "Get":
		if flexanalysis.NamedIs(recv, shmPkg, "Freelist") {
			return "shm.Freelist", true
		}
		if flexanalysis.NamedIs(recv, shmPkg, "Slab") {
			return "shm.Slab", true
		}
		// Per-engine packet pools: pool.Get() owns like packet.Get().
		if flexanalysis.NamedIs(recv, pktPkg, "Pool") {
			return "packet pool", true
		}
	case "NewFrame", "getFrame":
		// Per-engine frame pools: method forms of netsim.NewFrame.
		if flexanalysis.NamedIs(recv, netsimPkg, "FramePool") {
			return "frame pool", true
		}
	case "allocSeg":
		return "segItem pool", true
	case "getTimer":
		// Pooled timer carriers (PR 8): the control plane's connTimer and
		// the baseline stacks' btimer are drawn per arming and recycled
		// when the timer fires dead or is disarmed.
		return "timer pool", true
	}
	return "", false
}

// acquireFunc classifies package-level acquisition functions.
func acquireFunc(fn *types.Func) (string, bool) {
	if fn.Signature().Recv() != nil {
		return "", false
	}
	switch {
	case fn.Pkg().Path() == pktPkg && fn.Name() == "Get":
		return "packet pool", true
	case fn.Pkg().Path() == netsimPkg && (fn.Name() == "NewFrame" || fn.Name() == "getFrame"):
		return "frame pool", true
	}
	return "", false
}

// releaseCall recognizes pool releases and returns the released argument
// expression (nil when the shape doesn't match).
func releaseCall(pass *flexanalysis.Pass, call *ast.CallExpr) (arg ast.Expr, name string, ok bool) {
	if len(call.Args) == 0 {
		return nil, "", false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		selection := pass.TypesInfo.Selections[fun]
		if selection == nil {
			// Package-qualified function.
			if fn, isFn := pass.TypesInfo.Uses[fun.Sel].(*types.Func); isFn && fn.Pkg() != nil {
				if relFunc(fn) {
					return call.Args[0], fn.Name(), true
				}
			}
			return nil, "", false
		}
		if selection.Kind() != types.MethodVal {
			return nil, "", false
		}
		switch fun.Sel.Name {
		case "Put":
			recv := selection.Recv()
			if flexanalysis.NamedIs(recv, shmPkg, "Freelist") || flexanalysis.NamedIs(recv, shmPkg, "Slab") {
				return call.Args[0], "Put", true
			}
		case "putSeg":
			return call.Args[0], "putSeg", true
		case "putTimer":
			return call.Args[0], "putTimer", true
		}
	case *ast.Ident:
		if fn, isFn := pass.TypesInfo.Uses[fun].(*types.Func); isFn && fn.Pkg() != nil && relFunc(fn) {
			return call.Args[0], fn.Name(), true
		}
	}
	return nil, "", false
}

func relFunc(fn *types.Func) bool {
	if fn.Signature().Recv() != nil {
		return false
	}
	switch {
	case fn.Pkg().Path() == pktPkg && fn.Name() == "Release":
		return true
	case fn.Pkg().Path() == netsimPkg && fn.Name() == "ReleaseFrame":
		return true
	}
	return false
}

// pooledVar is one tracked local.
type pooledVar struct {
	pool string
	pos  ast.Node
}

func run(pass *flexanalysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeScope(pass, fn.Body)
				}
			case *ast.FuncLit:
				analyzeScope(pass, fn.Body)
			}
			return true
		})
	}
	return nil, nil
}

// ownStmts inspects body without descending into nested func literals.
func ownStmts(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

func analyzeScope(pass *flexanalysis.Pass, body *ast.BlockStmt) {
	// Collect acquisitions bound to plain locals: p := packet.Get().
	pooled := map[types.Object]*pooledVar{}
	ownStmts(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		pool, ok := acquireCall(pass, call)
		if !ok {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				pooled[obj] = &pooledVar{pool: pool, pos: id}
			}
		}
		return true
	})
	if len(pooled) == 0 {
		return
	}
	checkLeaks(pass, body, pooled)
	checkReleaseFlow(pass, body, pooled)
}

// checkLeaks flags pooled locals with no release and no handoff anywhere
// in the scope (flow-insensitive).
func checkLeaks(pass *flexanalysis.Pass, body *ast.BlockStmt, pooled map[types.Object]*pooledVar) {
	moved := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		for _, id := range aliasIdents(e, nil) {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				if _, ok := pooled[obj]; ok {
					moved[obj] = true
				}
			}
		}
	}
	ownStmts(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			for _, a := range st.Args {
				mark(a)
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				mark(r)
			}
		case *ast.AssignStmt:
			// Assignment RHS transfers (q := p, s.f = p); the acquiring
			// assignment itself has the call on the RHS, not the ident,
			// so it never marks.
			for _, r := range st.Rhs {
				mark(r)
			}
		case *ast.SendStmt:
			mark(st.Value)
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				mark(elt)
			}
		case *ast.FuncLit:
			// Captured by a closure (its body is an inner scope, but the
			// capture itself is a handoff). ownStmts does not descend, so
			// inspect here.
			ast.Inspect(st.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						if _, ok := pooled[obj]; ok {
							moved[obj] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
	for obj, pv := range pooled {
		if !moved[obj] {
			pass.Reportf(pv.pos.Pos(),
				"%s acquired from the %s is neither released nor handed off in this function: pooled values have exactly one owner, and the owner must release or transfer",
				obj.Name(), pv.pool)
		}
	}
}

// aliasIdents mirrors viewretain's: identifiers the value of e aliases.
func aliasIdents(e ast.Expr, out []*ast.Ident) []*ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		out = append(out, x)
	case *ast.SliceExpr:
		out = aliasIdents(x.X, out)
	case *ast.ParenExpr:
		out = aliasIdents(x.X, out)
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			out = aliasIdents(x.X, out)
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = aliasIdents(elt, out)
		}
	}
	return out
}

// checkReleaseFlow runs the flow-sensitive half: double release and use
// after release along the linear path.
func checkReleaseFlow(pass *flexanalysis.Pass, body *ast.BlockStmt, pooled map[types.Object]*pooledVar) {
	released := map[types.Object]string{} // obj -> release call name
	reported := map[types.Object]bool{}

	scanUses := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || reported[obj] {
				return true
			}
			if rel, dead := released[obj]; dead {
				pass.Reportf(id.Pos(),
					"%s used after %s released it back to the %s: ownership ended at the release",
					id.Name, rel, pooled[obj].pool)
				reported[obj] = true
			}
			return true
		})
	}

	handleCall := func(call *ast.CallExpr) {
		if arg, name, ok := releaseCall(pass, call); ok {
			if id, isIdent := arg.(*ast.Ident); isIdent {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					if _, tracked := pooled[obj]; tracked {
						if rel, dup := released[obj]; dup && !reported[obj] {
							pass.Reportf(call.Pos(),
								"double release of %s (already released by %s): the %s would hand one object to two owners",
								id.Name, rel, pooled[obj].pool)
							reported[obj] = true
						} else {
							released[obj] = name
						}
						// Scan the remaining args normally.
						for _, a := range call.Args[1:] {
							scanUses(a)
						}
						return
					}
				}
			}
		}
		scanUses(call)
	}

	rebind := func(lhs []ast.Expr) {
		for _, l := range lhs {
			if id, ok := l.(*ast.Ident); ok {
				obj := pass.TypesInfo.ObjectOf(id)
				delete(released, obj)
				delete(reported, obj)
			}
		}
	}

	pre := func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok {
					handleCall(call)
				} else {
					scanUses(rhs)
				}
			}
			for _, lhs := range st.Lhs {
				if _, isIdent := lhs.(*ast.Ident); !isIdent {
					scanUses(lhs)
				}
			}
			rebind(st.Lhs)
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				handleCall(call)
			} else {
				scanUses(st.X)
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				scanUses(r)
			}
		case *ast.IfStmt:
			scanUses(st.Cond)
		case *ast.ForStmt:
			scanUses(st.Cond)
		case *ast.RangeStmt:
			scanUses(st.X)
			rebind([]ast.Expr{st.Key, st.Value})
		case *ast.SwitchStmt:
			scanUses(st.Tag)
		case *ast.SendStmt:
			scanUses(st.Chan)
			scanUses(st.Value)
		case *ast.IncDecStmt:
			scanUses(st.X)
		case *ast.DeferStmt:
			// defer packet.Release(p) runs at exit: it is a release for
			// double-release purposes but poisons nothing mid-function.
			if _, _, ok := releaseCall(pass, st.Call); !ok {
				scanUses(st.Call)
			}
		case *ast.GoStmt:
			handleCall(st.Call)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							scanUses(v)
						}
					}
				}
			}
		}
	}
	snap := func() any {
		cp := make(map[types.Object]string, len(released))
		for k, v := range released {
			cp[k] = v
		}
		return cp
	}
	restore := func(s any) {
		released = s.(map[types.Object]string)
	}
	flexanalysis.WalkLinear(body.List, pre, snap, restore)
}
