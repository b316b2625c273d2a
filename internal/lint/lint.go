// Package lint is ripple-vet: a suite of static analyzers that enforce the
// invariants this repository's correctness arguments lean on but no compiler
// checks — replay determinism of the two runtimes, the Processor aliasing
// contract, lock/atomic discipline, transport deadline coverage, and
// exactly-once failure accounting.
//
// The framework mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic, analysistest-style fixtures with `// want` comments) but
// is self-contained: it loads packages through `go list -export` and the
// standard library's go/importer, so the module keeps zero external
// dependencies and the tool works in hermetic build environments. Porting an
// analyzer to the upstream framework is a mechanical change of import paths.
//
// See DESIGN.md §10 for the invariant each analyzer encodes and the
// suppression convention (`//lint:ignore <analyzer> <reason>`).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run reports violations on one type-checked package via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one package, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the cross-package knowledge base for the whole load (the
	// driver computes it once over every target package; Run falls back to
	// single-package facts for fixtures).
	Facts *Facts

	diags []Diagnostic
	cfgs  map[*ast.BlockStmt]*funcCFG
}

// cfgOf builds (and memoises) the control-flow graph of one function body.
func (p *Pass) cfgOf(body *ast.BlockStmt) *funcCFG {
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.BlockStmt]*funcCFG)
	}
	if g, ok := p.cfgs[body]; ok {
		return g
	}
	g := buildCFG(body, infoAdapter{p.TypesInfo})
	p.cfgs[body] = g
	return g
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes one analyzer over a loaded package and returns its
// diagnostics with ignore directives applied: suppressed findings are
// removed, and malformed or reason-less directives are themselves reported
// (a suppression must explain itself; see DESIGN.md §10).
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return RunWithFacts(a, pkg, pkg.facts())
}

// RunWithFacts is Run with an explicit cross-package fact base: the driver
// computes one Facts over every loaded package so whole-program analyzers
// (lockorder) and helper-aware ones (poolcheck, storeinval) see past package
// boundaries.
func RunWithFacts(a *Analyzer, pkg *Package, facts *Facts) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Facts:     facts,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	diags := applyIgnores(a.Name, pkg, pass.diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ---- small type/AST helpers shared by the analyzers ----

// calleeFunc resolves the *types.Func a call expression invokes (package
// function, method, or imported function). It returns nil for calls through
// function-typed variables, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (no receiver).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// funcPkgPath returns the import path of the package declaring fn ("" when
// unknown, e.g. builtins).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// findImport locates a (transitively) imported package by exact import path,
// so analyzers can resolve foreign named types (core.Processor, net.Conn)
// without importing them at analyzer build time.
func findImport(pkg *types.Package, path string) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			if imp.Path() == path {
				return imp
			}
			if found := walk(imp); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(pkg)
}

// lookupType resolves a named type (or the named type under a pointer) from
// a package scope; nil if absent.
func lookupType(pkg *types.Package, name string) types.Type {
	if pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup(name)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	return tn.Type()
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// resultTypes flattens the result types of a call expression: nil for a
// no-result call, one element for single results, N for tuples.
func resultTypes(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		if tv.IsVoid() {
			return nil
		}
		return []types.Type{t}
	}
}

// namedPathName reports the declaring package path and name of a named type,
// unwrapping aliases and pointers ("", "" when t is not named).
func namedPathName(t types.Type) (string, string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}
