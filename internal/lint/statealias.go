package lint

import (
	"go/ast"
	"go/types"
)

// StateAliasAnalyzer enforces the Processor aliasing contract (DESIGN.md
// §10.2). The engine owns the arguments it passes to the six template
// callbacks of core.Processor: the `[]core.State` batch handed to MergeStates
// and the overlay.Node view of the executing peer are reused by the engine
// after the callback returns. A Processor implementation must therefore treat
// them as borrowed for the duration of the call:
//
//   - storing the slice (or a reslice of it — same backing array) or the
//     Node into a field or package variable is a retention bug;
//   - writing into the slice's elements mutates engine state in place;
//     mutation must go through MergeStates' return value.
//
// Retaining individual State *elements* is fine: that is exactly how merged
// states are built.
var StateAliasAnalyzer = &Analyzer{
	Name: "statealias",
	Doc:  "Processor callbacks must not retain or mutate engine-owned []State slices and overlay.Node values",
	Run:  runStateAlias,
}

const (
	corePkgPath    = "ripple/internal/core"
	overlayPkgPath = "ripple/internal/overlay"
)

// processorCallbacks are the methods of core.Processor.
var processorCallbacks = map[string]bool{
	"LocalState": true, "GlobalState": true, "MergeStates": true,
	"LinkRelevant": true, "LinkPriority": true, "LocalAnswer": true,
	"InitialState": true, "StateTuples": true,
}

func runStateAlias(pass *Pass) error {
	corePkg := findImport(pass.Pkg, corePkgPath)
	procType := lookupType(corePkg, "Processor")
	if procType == nil {
		return nil // package cannot implement Processor without importing core
	}
	procIface, ok := procType.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	stateType := lookupType(corePkg, "State")
	nodeType := lookupType(findImport(pass.Pkg, overlayPkgPath), "Node")

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !processorCallbacks[fd.Name.Name] {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			recv := sig.Recv().Type()
			if !types.Implements(recv, procIface) && !types.Implements(types.NewPointer(recv), procIface) {
				continue
			}
			guarded := guardedParams(sig, stateType, nodeType)
			if len(guarded) == 0 {
				continue
			}
			checkCallbackBody(pass, fd, guarded)
		}
	}
	return nil
}

// guardedParams selects the engine-owned parameters: []core.State slices and
// overlay.Node values.
func guardedParams(sig *types.Signature, stateType, nodeType types.Type) map[*types.Var]string {
	out := make(map[*types.Var]string)
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if sl, ok := p.Type().(*types.Slice); ok && stateType != nil && types.Identical(sl.Elem(), stateType) {
			out[p] = "[]core.State slice"
		}
		if nodeType != nil && types.Identical(p.Type(), nodeType) {
			out[p] = "overlay.Node"
		}
	}
	return out
}

// checkCallbackBody flags retention (store to field or package variable) and
// in-place mutation of guarded parameters.
func checkCallbackBody(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Var]string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			// In-place mutation: states[i] = x.
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if p := aliasedParam(pass.TypesInfo, idx.X, guarded); p != nil {
					pass.Reportf(lhs.Pos(),
						"%s mutates the engine-owned %s %q in place; the engine reuses it after the callback — return the new state from MergeStates instead",
						fd.Name.Name, guarded[p], p.Name())
				}
			}
			if i >= len(as.Rhs) {
				continue
			}
			// Retention: field or package variable keeps an alias.
			p := aliasedParam(pass.TypesInfo, as.Rhs[i], guarded)
			if p == nil {
				continue
			}
			if escapes(pass, lhs) {
				pass.Reportf(as.Pos(),
					"%s stores the engine-owned %s %q beyond the callback; the engine reuses it after returning — copy the data you need instead",
					fd.Name.Name, guarded[p], p.Name())
			}
		}
		return true
	})
}

// aliasedParam reports which guarded parameter the expression aliases: the
// bare parameter, a reslice of it (shares the backing array), or a
// parenthesization of either. Element reads (states[i]) do not alias the
// slice and return nil.
func aliasedParam(info *types.Info, e ast.Expr, guarded map[*types.Var]string) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			if _, isGuarded := guarded[v]; isGuarded {
				return v
			}
		}
	case *ast.SliceExpr:
		return aliasedParam(info, e.X, guarded)
	}
	return nil
}

// escapes reports whether assigning to the expression publishes the value
// beyond the callback: a field of any struct (in these small callbacks,
// receivers and captured state) or a package-level variable. Indexed stores
// escape when their base does.
func escapes(pass *Pass, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return escapes(pass, lhs.X)
	case *ast.StarExpr:
		return true // store through a pointer: the destination outlives the call
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[lhs].(*types.Var)
		if !ok {
			return false
		}
		return v.Parent() == pass.Pkg.Scope() // package-level variable
	}
	return false
}
