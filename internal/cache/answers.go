package cache

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"ripple/internal/dataset"
	"ripple/internal/geom"
)

// EncodeAnswers renders an answer set in canonical wire form: tuples sorted
// by ID (deduplicated, first occurrence wins), each as id + dimensionality +
// IEEE-754 coordinate bits. Two answer sets encode identically exactly when
// they contain the same tuples, so a cached reply and a fresh reply to the
// same query compare byte-identical through this encoding regardless of the
// traversal order that produced them.
func EncodeAnswers(ts []dataset.Tuple) []byte {
	sorted := make([]dataset.Tuple, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	dedup := sorted[:0]
	for i, t := range sorted {
		if i == 0 || t.ID != sorted[i-1].ID {
			dedup = append(dedup, t)
		}
	}
	out := make([]byte, 0, 8+len(dedup)*24)
	out = binary.BigEndian.AppendUint32(out, uint32(len(dedup)))
	for _, t := range dedup {
		out = binary.BigEndian.AppendUint64(out, t.ID)
		out = binary.BigEndian.AppendUint16(out, uint16(len(t.Vec)))
		for _, v := range t.Vec {
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// DecodeAnswers parses an EncodeAnswers payload back into tuples (in
// canonical ID order). It accepts only canonical payloads, so an accepted
// payload re-encodes to itself: IDs must be strictly increasing, and the
// count is checked against the bytes remaining (every tuple takes at least
// 10) before anything is allocated.
func DecodeAnswers(b []byte) ([]dataset.Tuple, error) {
	if len(b) < 4 {
		return nil, errors.New("cache: truncated answer payload")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)/10) {
		return nil, errors.New("cache: answer count exceeds payload")
	}
	out := make([]dataset.Tuple, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 10 {
			return nil, errors.New("cache: truncated answer tuple")
		}
		id := binary.BigEndian.Uint64(b)
		if i > 0 && id <= out[i-1].ID {
			return nil, errors.New("cache: answer IDs not strictly increasing")
		}
		d := int(binary.BigEndian.Uint16(b[8:]))
		b = b[10:]
		if len(b) < 8*d {
			return nil, errors.New("cache: truncated answer vector")
		}
		vec := make(geom.Point, d)
		for j := 0; j < d; j++ {
			vec[j] = math.Float64frombits(binary.BigEndian.Uint64(b[8*j:]))
		}
		b = b[8*d:]
		out = append(out, dataset.Tuple{ID: id, Vec: vec})
	}
	if len(b) != 0 {
		return nil, errors.New("cache: trailing bytes in answer payload")
	}
	return out, nil
}
