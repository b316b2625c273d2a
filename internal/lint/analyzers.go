package lint

import "strings"

// Analyzers returns the full ripple-vet suite: the five syntactic matchers
// from PR 3 plus the five flow-sensitive analyzers built on the CFG/facts
// layer (cfg.go, facts.go).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		StateAliasAnalyzer,
		LockCheckAnalyzer,
		CtxDeadlineAnalyzer,
		ErrLostAnalyzer,
		PoolCheckAnalyzer,
		WireDetAnalyzer,
		LockOrderAnalyzer,
		StoreInvalAnalyzer,
		GoroLeakAnalyzer,
	}
}

// DefaultScope maps each analyzer to the import-path suffixes of the
// packages whose invariants it encodes (matched against the end of the
// import path, so the rules survive a module rename). An empty list means
// "run everywhere" — used for analyzers that self-limit, like statealias,
// which only fires on core.Processor implementations.
//
// The scopes mirror the invariants' blast radius: determinism covers every
// package the two replay-validated runtimes share; lockcheck the packages
// with real concurrency; ctxdeadline the TCP transport; errlost the fan-out
// engines plus the metrics endpoint they are observed through.
var DefaultScope = map[string][]string{
	"determinism": {
		"internal/core", "internal/sim", "internal/faults", "internal/trace",
		"internal/overlay", "internal/midas", "internal/can", "internal/chord",
		"internal/baton",
	},
	"statealias":  {},
	"lockcheck":   {"internal/metrics", "internal/netpeer"},
	"ctxdeadline": {"internal/netpeer"},
	"errlost":     {"internal/core", "internal/netpeer", "internal/metrics"},
	// The flow-sensitive analyzers self-limit: poolcheck only fires where a
	// pool-like type is used, storeinval where a storage.Provider is defined,
	// goroleak where a shutdown-owning component lives, lockorder on the
	// whole-program acquisition graph, and wiredet needs map-ordered taint
	// plus an encode sink in the same function. Empty scope = run everywhere.
	"poolcheck":  {},
	"wiredet":    {},
	"lockorder":  {},
	"storeinval": {},
	"goroleak":   {},
}

// InScope reports whether an analyzer's default scope covers a package.
func InScope(analyzer, pkgPath string) bool {
	suffixes, ok := DefaultScope[analyzer]
	if !ok || len(suffixes) == 0 {
		return true
	}
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
