// wiredet: taint analysis for wire determinism (DESIGN.md §10.7). The replay
// and cross-runtime equivalence suites compare encoded bytes, so any slice
// whose element order comes from Go map iteration — which differs between
// runs by design — must be sorted before it reaches the wire codec's Append
// encoders, a frame writer, or a canonical-form builder. PR 3's determinism
// analyzer catches the append-under-range shape syntactically inside one
// statement list; wiredet follows the value: through local assignments,
// through struct fields, and through helper functions (via the cross-package
// mapOrdered fact), to the encode call that actually puts the bytes on the
// wire.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var WireDetAnalyzer = &Analyzer{
	Name: "wiredet",
	Doc:  "map-iteration order must never flow into a wire Append encode, frame write, or canonical-form builder",
	Run:  runWireDet,
}

func runWireDet(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWireDetBody(pass, fd.Body)
		}
	}
	return nil
}

func checkWireDetBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// Seed taint: order-carrying slices built in this function, plus values
	// returned by helpers known (facts) to build them.
	tainted := make(map[types.Object]token.Pos)
	for obj := range mapOrderedVars(info, body) {
		tainted[obj] = obj.Pos()
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			fn := calleeFunc(info, call)
			if fn != nil && pass.Facts.mapOrdered[fn] {
				if obj := exprObj(info, as.Lhs[i]); obj != nil {
					tainted[obj] = call.Pos()
				}
			}
		}
		return true
	})
	if len(tainted) == 0 {
		return
	}

	// Propagate through assignments (v2 := v1, s.Field = v1, w := append(x,
	// v1...), composite literals) a bounded number of rounds; a function body
	// rarely needs more than two.
	for round := 0; round < 3; round++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				src, isTainted := taintSource(info, tainted, rhs)
				if !isTainted {
					continue
				}
				if obj := exprObj(info, as.Lhs[i]); obj != nil {
					if _, already := tainted[obj]; !already {
						tainted[obj] = src
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Sanitisers: a sort on the object clears it for sinks after the sort.
	sortPos := make(map[types.Object][]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		isSortPkg := funcPkgPath(fn) == "sort" || funcPkgPath(fn) == "slices"
		if !isSortPkg || (!strings.HasPrefix(fn.Name(), "Sort") && !isSortShorthand(fn.Name())) {
			return true
		}
		if obj := exprObj(info, call.Args[0]); obj != nil {
			sortPos[obj] = append(sortPos[obj], call.Pos())
		}
		return true
	})
	sanitizedAt := func(obj types.Object, at token.Pos) bool {
		for _, p := range sortPos[obj] {
			if p < at {
				return true
			}
		}
		return false
	}

	// Sinks.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink, ok := encodeSink(info, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			obj := taintedArg(info, tainted, arg)
			if obj == nil || sanitizedAt(obj, call.Pos()) {
				continue
			}
			pass.Reportf(call.Pos(),
				"%q carries map-iteration order into %s; encoded bytes would differ between replays — sort it before encoding",
				obj.Name(), sink)
		}
		return true
	})
}

// taintSource reports whether an assignment RHS propagates taint: the
// expression is (or syntactically contains, outside of non-append calls) a
// tainted object. Calls other than the append builtin launder taint —
// len(v), hashing, etc. produce order-insensitive values.
func taintSource(info *types.Info, tainted map[types.Object]token.Pos, e ast.Expr) (token.Pos, bool) {
	var src token.Pos
	found := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if found || e == nil {
			return
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				if p, ok := tainted[obj]; ok {
					src, found = p, true
				}
			}
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.SliceExpr:
			walk(e.X)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
				} else {
					walk(el)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					for _, a := range e.Args {
						walk(a)
					}
				}
			}
		}
	}
	walk(e)
	return src, found
}

// taintedArg resolves a sink argument to a tainted object (direct, address
// of, or a composite literal carrying one).
func taintedArg(info *types.Info, tainted map[types.Object]token.Pos, arg ast.Expr) types.Object {
	var hit types.Object
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if hit != nil || e == nil {
			return
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				if _, ok := tainted[obj]; ok {
					hit = obj
				}
			}
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
				} else {
					walk(el)
				}
			}
		case *ast.SelectorExpr:
			// s.Field where s itself became tainted via a field store.
			if obj := exprObj(info, e); obj != nil {
				if _, ok := tainted[obj]; ok {
					hit = obj
				}
			}
			walk(e.X)
		}
	}
	walk(arg)
	return hit
}

// encodeSink classifies calls whose arguments end up as wire or canonical
// bytes: internal/wire's Append* encoders and Write* framers, and any
// Canonical* builder.
func encodeSink(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		return "", false
	}
	name := fn.Name()
	if strings.HasSuffix(funcPkgPath(fn), "internal/wire") &&
		(strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "Write")) {
		return "wire." + name, true
	}
	if strings.HasPrefix(name, "Canonical") {
		return name, true
	}
	return "", false
}
