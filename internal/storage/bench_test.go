package storage

import (
	"fmt"
	"sync"
	"testing"

	"ripple/internal/dataset"
	"ripple/internal/geom"
)

// Paired scan-vs-rtree measurements of the peer-local compute path at
// realistic per-peer zone sizes (10k / 100k / 1M tuples). Every benchmark
// runs the identical derived operation (ops.go) on both engines, so the
// ratio between arms is exactly the local-compute speedup the R-tree buys.
// In-process and ungated; the fleet's local_heavy workload (benchmark/)
// measures the engine end to end.

const benchDims = 4

var benchSizes = []struct {
	name string
	n    int
}{
	{"10k", 10_000},
	{"100k", 100_000},
	{"1m", 1_000_000},
}

// Stores are built once per (engine, size) and shared across benchmarks: a
// 1M-tuple STR bulk load is part of overlay construction, not of the
// per-query cost being measured.
var (
	benchMu     sync.Mutex
	benchData   = map[int][]dataset.Tuple{}
	benchStores = map[string]Store{}
)

func benchStore(kind Kind, n int) Store {
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s-%d", kind, n)
	if st, ok := benchStores[key]; ok {
		return st
	}
	ts, ok := benchData[n]
	if !ok {
		ts = dataset.Uniform(n, benchDims, 42)
		benchData[n] = ts
	}
	own := make([]dataset.Tuple, len(ts))
	copy(own, ts)
	st := New(kind, own)
	benchStores[key] = st
	return st
}

// benchScore is a fixed positive-weight linear scorer; benchUpper bounds it
// from above over a closed box (the monotone corner evaluation).
func benchScore(p geom.Point) float64 {
	s := 0.0
	for i, v := range p {
		s += float64(i+1) * v
	}
	return s
}

func benchUpper(b geom.Rect) float64 {
	s := 0.0
	for i, v := range b.Hi {
		s += float64(i+1) * v
	}
	return s
}

var benchCenter = geom.Point{0.31, 0.62, 0.48, 0.77}

// forEachArm runs one benchmark body per (engine, size) pair.
func forEachArm(b *testing.B, body func(b *testing.B, st Store)) {
	for _, kind := range []Kind{KindScan, KindRTree} {
		for _, sz := range benchSizes {
			b.Run(fmt.Sprintf("%s-%s", kind, sz.name), func(b *testing.B) {
				st := benchStore(kind, sz.n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body(b, st)
				}
			})
		}
	}
}

// BenchmarkStorageTopK is top-k's computeLocalState half: the k best scores
// in descending order.
func BenchmarkStorageTopK(b *testing.B) {
	forEachArm(b, func(b *testing.B, st Store) {
		if got := TopScores(st, 10, benchScore, benchUpper); len(got) != 10 {
			b.Fatalf("got %d scores, want 10", len(got))
		}
	})
}

// BenchmarkStorageThresholdAnswer is top-k's computeLocalAnswer half: every
// tuple at or above the threshold the store's own top-10 establishes.
func BenchmarkStorageThresholdAnswer(b *testing.B) {
	for _, kind := range []Kind{KindScan, KindRTree} {
		for _, sz := range benchSizes {
			b.Run(fmt.Sprintf("%s-%s", kind, sz.name), func(b *testing.B) {
				st := benchStore(kind, sz.n)
				scores := TopScores(st, 10, benchScore, benchUpper)
				tau := scores[len(scores)-1]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := Above(st, tau, benchScore, benchUpper); len(got) < 10 {
						b.Fatalf("got %d answers, want >= 10", len(got))
					}
				}
			})
		}
	}
}

// BenchmarkStorageKNN is the kNN local step: best-first search for the 10
// nearest tuples under Euclidean distance.
func BenchmarkStorageKNN(b *testing.B) {
	forEachArm(b, func(b *testing.B, st Store) {
		if got := KNN(st, benchCenter, 10, geom.L2); len(got) != 10 {
			b.Fatalf("got %d neighbours, want 10", len(got))
		}
	})
}

// BenchmarkStorageMBRSearch is the raw spatial primitive: report every tuple
// inside a box covering ~0.1% of the unit domain.
func BenchmarkStorageMBRSearch(b *testing.B) {
	box := geom.Rect{
		Lo: geom.Point{0.3, 0.3, 0.3, 0.3},
		Hi: geom.Point{0.48, 0.48, 0.48, 0.48},
	}
	forEachArm(b, func(b *testing.B, st Store) {
		n := 0
		st.Search(box, func(dataset.Tuple) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty search result; box too small")
		}
	})
}
