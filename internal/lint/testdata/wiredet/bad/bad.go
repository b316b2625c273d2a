// Package fixture routes map-iteration order into an encoder: the taint
// survives a local re-assignment, which is exactly what the syntactic
// determinism matcher cannot see.
package fixture

import "ripple/internal/wire"

// Encode serialises map keys in whatever order Go iterates them.
func Encode(m map[uint64]bool) []byte {
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	ids := keys
	return wire.AppendUint64s(nil, ids) // want `"ids" carries map-iteration order into wire\.AppendUint64s`
}

// CanonicalForm is a canonical-form builder by naming convention: feeding it
// unsorted map-ordered input is a replay-divergence bug.
func CanonicalForm(parts []string) string {
	out := ""
	for _, p := range parts {
		out += p
	}
	return out
}

// BuildKey collects map keys and hands them to the canonical builder.
func BuildKey(m map[string]bool) string {
	var parts []string
	for k := range m {
		parts = append(parts, k)
	}
	return CanonicalForm(parts) // want `"parts" carries map-iteration order into CanonicalForm`
}
