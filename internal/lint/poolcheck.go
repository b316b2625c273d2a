// poolcheck: flow-sensitive pool hygiene (DESIGN.md §10.6). The wire frame
// buffers and the netpeer connection pool hand out reusable objects whose
// loss is invisible at runtime — a dropped buffer just means a fresh
// allocation next time — so the only guard against silently regressing the
// low-alloc hot path is static: every value obtained from a pool must, on
// every path to the function exit, either be returned to the pool (Put,
// directly or through a releaser helper), closed, handed off (returned or
// stored in longer-lived state), or be provably nil. A deliberate drop is
// documented with a reasoned //lint:ignore.
//
// The second half of the contract is temporal: a value returned to the pool
// belongs to the next Get, so any use after the Put is a data race with a
// future borrower.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

var PoolCheckAnalyzer = &Analyzer{
	Name: "poolcheck",
	Doc:  "pooled values must be Put (or handed off) on every path, and never used after the Put",
	Run:  runPoolCheck,
}

func runPoolCheck(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolsInBody(pass, fd.Body)
			// Closures get their own graphs: a Get inside a function literal
			// must be balanced inside that literal.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkPoolsInBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// poolGetSite is one `v := pool.Get()` (or helper equivalent) to track.
type poolGetSite struct {
	v    types.Object
	stmt ast.Stmt
	call *ast.CallExpr
}

func checkPoolsInBody(pass *Pass, body *ast.BlockStmt) {
	sites := collectGetSites(pass, body)
	if len(sites) == 0 {
		return
	}
	g := pass.cfgOf(body)
	for _, site := range sites {
		checkGetSite(pass, g, body, site)
	}
}

// collectGetSites finds pool acquisitions assigned to a variable, skipping
// nested function literals (they are analysed as their own bodies).
func collectGetSites(pass *Pass, body *ast.BlockStmt) []poolGetSite {
	var sites []poolGetSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call := unwrapToCall(rhs)
			if call == nil || !isTrackedGet(pass, call) {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			obj := exprObj(pass.TypesInfo, as.Lhs[i])
			if obj == nil || obj.Name() == "_" {
				continue
			}
			// Only track local variables: a Get stored straight into a field
			// is already a hand-off to longer-lived state.
			if _, isVar := obj.(*types.Var); !isVar {
				continue
			}
			if _, isField := as.Lhs[i].(*ast.SelectorExpr); isField {
				continue
			}
			sites = append(sites, poolGetSite{v: obj, stmt: as, call: call})
		}
		return true
	})
	return sites
}

// isTrackedGet: a pool-like Get method, or a helper that (per facts) returns
// a pooled value.
func isTrackedGet(pass *Pass, call *ast.CallExpr) bool {
	if isPoolGet(pass.TypesInfo, call) {
		return true
	}
	fn := calleeFunc(pass.TypesInfo, call)
	return fn != nil && pass.Facts.returnsPooled[fn]
}

func unwrapToCall(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, _ := e.(*ast.CallExpr)
	return call
}

func checkGetSite(pass *Pass, g *funcCFG, body *ast.BlockStmt, site poolGetSite) {
	info := pass.TypesInfo
	// Ranges of `if v == nil { ... }` bodies: inside them the pooled value is
	// known absent, so a return there releases nothing.
	nilRanges := nilGuardRanges(info, body, site.v)
	inNilGuard := func(n ast.Node) bool {
		for _, r := range nilRanges {
			if r[0] <= n.Pos() && n.End() <= r[1] {
				return true
			}
		}
		return false
	}

	// `if v := pool.Get(); v != nil { ... }`: v is scoped to the if statement
	// and nil outside the body, so the obligation only covers body paths.
	var guardIf *ast.IfStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && ifs.Init == site.stmt && isNeqNil(info, ifs.Cond, site.v) {
			guardIf = ifs
			return false
		}
		return guardIf == nil
	})
	outsideGuardBody := func(n ast.Node) bool {
		return guardIf != nil && !(guardIf.Body.Pos() <= n.Pos() && n.End() <= guardIf.Body.End())
	}

	released := func(n ast.Node) bool {
		return nodeReleases(pass, n, site.v) ||
			(isReturn(n) && (inNilGuard(n) || outsideGuardBody(n)))
	}
	ok, witness := g.mustReach(site.stmt, released)
	if !ok {
		where := ""
		if witness != nil {
			where = " (escapes via line " + itoa(pass.Fset.Position(witness.Pos()).Line) + ")"
		}
		pass.Reportf(site.call.Pos(),
			"pooled value %q is not returned to the pool on every path%s; Put/Close it on each exit or document the deliberate drop with //lint:ignore poolcheck",
			site.v.Name(), where)
	}

	// Use-after-Put: from each non-deferred Put of v, no later node may read
	// v until it is reassigned.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if _, isDefer := stmt.(*ast.DeferStmt); isDefer {
			return false
		}
		if !stmtPuts(pass, stmt, site.v) {
			return true
		}
		reportUseAfterPut(pass, g, stmt, site.v)
		return true
	})
}

// stmtPuts reports whether stmt (non-defer) passes v to a pool Put.
func stmtPuts(pass *Pass, stmt ast.Stmt, v types.Object) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok || !isPoolPut(pass.TypesInfo, call) {
		return false
	}
	for _, arg := range call.Args {
		if exprObj(pass.TypesInfo, ast.Unparen(arg)) == v {
			return true
		}
	}
	return false
}

func reportUseAfterPut(pass *Pass, g *funcCFG, put ast.Stmt, v types.Object) {
	reported := false
	g.reachableUses(put, func(n ast.Node) bool {
		if reported {
			return false
		}
		// Reassignment ends the tracked lifetime on this path.
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if exprObj(pass.TypesInfo, lhs) == v {
					return false
				}
			}
		}
		if mentionsObj(pass.TypesInfo, n, v) {
			pass.Reportf(n.Pos(),
				"pooled value %q used after being returned to the pool; it may already belong to another goroutine", v.Name())
			reported = true
			return false
		}
		return true
	})
}

// nodeReleases reports whether executing n releases, hands off, or ends the
// tracked lifetime of v:
//   - v passed to a pool Put/put, or to a helper that releases that
//     parameter (facts), or v.Close() — including deferred forms;
//   - v returned to the caller (ownership transfer);
//   - v stored into a field, global, map, or slice element (hand-off to
//     longer-lived state);
//   - v reassigned from a non-pool source (the pooled object is gone; the
//     new value is whatever the new source owns).
func nodeReleases(pass *Pass, n ast.Node, v types.Object) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if callReleases(pass, m, v) {
				found = true
			}
		case *ast.ReturnStmt:
			for _, res := range m.Results {
				if mentionsObj(info, res, v) {
					found = true
				}
			}
		case *ast.AssignStmt:
			// Hand-off: v on the right of an assignment into non-local state.
			rhsMentions := false
			for _, rhs := range m.Rhs {
				if mentionsObj(info, rhs, v) {
					rhsMentions = true
				}
			}
			if rhsMentions {
				for _, lhs := range m.Lhs {
					switch ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						found = true
					}
				}
			}
			// Reassignment of v itself from something that is not v.
			for _, lhs := range m.Lhs {
				if exprObj(info, lhs) == v && !rhsMentions {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// callReleases: the call returns v to a pool, closes it, or forwards it to a
// releaser helper.
func callReleases(pass *Pass, call *ast.CallExpr, v types.Object) bool {
	info := pass.TypesInfo
	if isPoolPut(info, call) {
		for _, arg := range call.Args {
			if exprObj(info, ast.Unparen(arg)) == v {
				return true
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
		if exprObj(info, sel.X) == v {
			return true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	rel := pass.Facts.releasesParam[fn]
	if rel == nil {
		return false
	}
	for i, arg := range call.Args {
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = ast.Unparen(u.X)
		}
		if exprObj(info, e) == v && rel[i] {
			return true
		}
	}
	return false
}

// nilGuardRanges collects the source ranges of `if v == nil` bodies.
func nilGuardRanges(info *types.Info, body *ast.BlockStmt, v types.Object) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		bin, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			return true
		}
		x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
		isNil := func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			return ok && id.Name == "nil"
		}
		if (exprObj(info, x) == v && isNil(y)) || (exprObj(info, y) == v && isNil(x)) {
			out = append(out, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

func isReturn(n ast.Node) bool {
	_, ok := n.(*ast.ReturnStmt)
	return ok
}

// isNeqNil: the condition is `v != nil` (either operand order).
func isNeqNil(info *types.Info, cond ast.Expr, v types.Object) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (exprObj(info, x) == v && isNil(y)) || (exprObj(info, y) == v && isNil(x))
}

// mentionsObj reports whether the subtree references obj, ignoring nested
// function literals' bodies (their captures have their own lifetimes).
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func itoa(i int) string { return strconv.Itoa(i) }
