package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func opBytes(t *testing.T, s *spec, seed int64, stream, lag, n int) []byte {
	t.Helper()
	g := newOpStream(s, queryPool(s.dims, seed), seed, stream, lag)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(g.next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The same seed gives a byte-identical operation stream and arrival
// schedule; another seed, or another stream of the same seed, gives others.
func TestSameSeedSameInputs(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		a, b := opBytes(t, s, 7, 3, 1, 500), opBytes(t, s, 7, 3, 1, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different operation streams", s.name)
		}
		if bytes.Equal(a, opBytes(t, s, 8, 3, 1, 500)) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", s.name)
		}
		if bytes.Equal(a, opBytes(t, s, 7, 4, 1, 500)) {
			t.Errorf("%s: two streams of seed 7 gave the same operations", s.name)
		}
	}
	a, b := arrivals(7, 500, 2*time.Second), arrivals(7, 500, 2*time.Second)
	if len(a) != len(b) || len(a) < 800 || len(a) > 1200 {
		t.Fatalf("arrivals: %d and %d due times for 500/s over 2 s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrivals: seed 7 gave two schedules (index %d)", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals: due times go backwards at %d", i)
		}
	}
	if c := arrivals(8, 500, 2*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Error("arrivals: seeds 7 and 8 gave the same schedule")
	}
}

// A delete names a tuple the stream itself inserted at least lag operations
// earlier, each tuple at most once, and the mix stays close to its shares.
func TestWriteStreamDeletesOwnOldInserts(t *testing.T) {
	s, err := findSpec("zipf_rw")
	if err != nil {
		t.Fatal(err)
	}
	const lag = 256
	g := newOpStream(&s, queryPool(s.dims, 1), 1, 0, lag)
	insertedAt := map[uint64]int{}
	counts := map[opKind]int{}
	for i := 1; i <= 20000; i++ {
		o := g.next()
		counts[o.Kind]++
		switch o.Kind {
		case opInsert:
			if !g.pool[o.Box].box.Contains(o.Tuple.Vec) {
				t.Fatalf("op %d: inserted tuple lies outside its box", i)
			}
			if o.Tuple.ID < insertedBase {
				t.Fatalf("op %d: inserted id %d collides with the dataset's", i, o.Tuple.ID)
			}
			insertedAt[o.Tuple.ID] = i
		case opDelete:
			at, ok := insertedAt[o.Tuple.ID]
			if !ok {
				t.Fatalf("op %d: delete of a tuple never inserted (or deleted twice)", i)
			}
			if i-at < lag {
				t.Fatalf("op %d: delete only %d operations after its insert", i, i-at)
			}
			delete(insertedAt, o.Tuple.ID)
		}
	}
	if r := float64(counts[opScopedTopK]) / 20000; r < 0.88 || r > 0.92 {
		t.Errorf("scoped reads are %.3f of the stream, want 0.90", r)
	}
	if len(insertedAt) > 2*lag {
		t.Errorf("%d inserts left undeleted: the dataset does not stay level", len(insertedAt))
	}
}

func TestZipfIsSkewed(t *testing.T) {
	s, _ := findSpec("zipf_rw")
	g := newOpStream(&s, queryPool(s.dims, 1), 1, 0, 1)
	hits := make([]int, poolBoxes)
	for i := 0; i < 20000; i++ {
		if o := g.next(); o.Kind == opScopedTopK {
			hits[o.Box]++
		}
	}
	if hits[0] < 5*hits[poolBoxes-1] || hits[poolBoxes-1] == 0 {
		t.Errorf("box 0 asked %d times, box %d %d times: want a skew of 0.9 with every box asked", hits[0], poolBoxes-1, hits[poolBoxes-1])
	}
}
