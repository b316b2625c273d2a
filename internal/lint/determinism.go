package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the replay-determinism contract of the
// simulation kernel (DESIGN.md §10.1): the engine and TCP runtimes are
// validated against each other by replaying the same overlay, query, and
// fault seed, so the packages they share must be pure functions of their
// inputs. Three sources of hidden nondeterminism are banned:
//
//   - wall-clock reads (time.Now, Since, Sleep, ...): logical hop clocks are
//     the only time in the deterministic packages;
//   - the global math/rand stream (rand.Intn, rand.Shuffle, ...): all
//     randomness must flow from an explicit seed via rand.New(rand.NewSource)
//     or the faults.Uniform01 hash;
//   - order-dependent output built by iterating a map: appends, channel
//     sends, and stream writes under `for ... range m` produce
//     schedule-dependent order unless the result is sorted afterwards.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, the global rand stream, and map-iteration-ordered output in replay-deterministic packages",
	Run:  runDeterminism,
}

// forbiddenTimeFuncs read the wall clock or schedule against it.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// allowedRandFuncs are the math/rand package-level constructors that do not
// touch the global stream.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkForbiddenFuncUse(pass, n)
			case *ast.BlockStmt:
				checkMapRangeList(pass, n.List)
			case *ast.CaseClause:
				checkMapRangeList(pass, n.Body)
			case *ast.CommClause:
				checkMapRangeList(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkForbiddenFuncUse flags any reference (call or function value) to a
// wall-clock or global-rand function.
func checkForbiddenFuncUse(pass *Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are seeded and fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			pass.Reportf(id.Pos(),
				"call to time.%s in a replay-deterministic package; runtimes must agree on replay, so derive logical clocks from hop counts or the seed",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(id.Pos(),
				"use of the global math/rand stream (rand.%s) in a replay-deterministic package; draw from rand.New(rand.NewSource(seed)) or faults.Uniform01 instead",
				fn.Name())
		}
	}
}

// checkMapRangeList examines each map-range statement of a statement list
// with access to the statements that follow it (for the sorted-afterwards
// exception).
func checkMapRangeList(pass *Pass, list []ast.Stmt) {
	for i, stmt := range list {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		checkMapRangeBody(pass, rng, list[i+1:])
	}
}

// checkMapRangeBody looks for order-sensitive sinks inside the body of a
// range over a map. Order-insensitive folds (map writes, counters, max/min)
// pass; appends survive only when the appended slice is sorted by a statement
// following the loop in the same block.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside range over map: receivers observe map iteration order, which differs between runs; iterate sorted keys instead")
		case *ast.CallExpr:
			checkMapRangeCall(pass, rng, rest, n)
		}
		return true
	})
}

func checkMapRangeCall(pass *Pass, rng *ast.RangeStmt, rest []ast.Stmt, call *ast.CallExpr) {
	// Builtin append: find the assignment target and require a later sort.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			target := appendTarget(pass, rng, call)
			if target == nil {
				return // appends to a loop-local slice don't leak iteration order
			}
			if sortedAfter(pass, target, rest) {
				return
			}
			pass.Reportf(call.Pos(),
				"append to %q inside range over map leaks map iteration order; sort %q after the loop or iterate sorted keys",
				target.Name(), target.Name())
			return
		}
	}
	// Stream writes: fmt printing and Write* methods emit in iteration order.
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if funcPkgPath(fn) == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		pass.Reportf(call.Pos(),
			"fmt.%s inside range over map emits in map iteration order, which differs between runs; iterate sorted keys instead", fn.Name())
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			pass.Reportf(call.Pos(),
				"%s call inside range over map emits in map iteration order, which differs between runs; iterate sorted keys instead", fn.Name())
		}
	}
}

// appendTarget resolves the variable an append call's result is assigned to,
// by finding the enclosing `x = append(x, ...)` form inside the loop body.
// It returns nil for slices declared inside the loop body itself (their
// contents never survive an iteration, so iteration order cannot leak).
func appendTarget(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) types.Object {
	var target types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) != call || i >= len(as.Lhs) {
				continue
			}
			target = exprObj(pass.TypesInfo, as.Lhs[i])
		}
		return true
	})
	if target == nil {
		return nil
	}
	if target.Pos() >= rng.Body.Pos() && target.Pos() < rng.Body.End() {
		return nil // declared inside the loop body
	}
	return target
}

// sortedAfter reports whether a statement after the loop sorts the object.
func sortedAfter(pass *Pass, target types.Object, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || len(call.Args) == 0 {
				return true
			}
			isSort := funcPkgPath(fn) == "sort" || funcPkgPath(fn) == "slices"
			if !isSort || (!strings.HasPrefix(fn.Name(), "Sort") && !isSortShorthand(fn.Name())) {
				return true
			}
			if exprObj(pass.TypesInfo, call.Args[0]) == target {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortShorthand covers sort.Slice/SliceStable/Stable/Strings/Ints/Float64s.
func isSortShorthand(name string) bool {
	switch name {
	case "Slice", "SliceStable", "Stable", "Strings", "Ints", "Float64s":
		return true
	}
	return false
}

// exprObj resolves the object behind an identifier or field selector,
// covering both uses and `:=` definitions.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}
