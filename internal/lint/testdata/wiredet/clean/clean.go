// Package fixture sorts before encoding; no diagnostics.
package fixture

import (
	"sort"

	"ripple/internal/wire"
)

// EncodeSorted sorts the keys before they reach the encoder.
func EncodeSorted(m map[uint64]bool) []byte {
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return wire.AppendUint64s(nil, keys)
}

// Launder shows that order-insensitive derivations (len) are not taint.
func Launder(m map[uint64]bool) []byte {
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	count := len(keys)
	return wire.AppendInt(nil, count)
}
