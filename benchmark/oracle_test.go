package main

import (
	"strings"
	"testing"
	"time"

	"ripple/benchmark/sut"
)

func oracleFixture(t *testing.T) (*oracle, []sut.Tuple) {
	t.Helper()
	s, err := findSpec("zipf_rw")
	if err != nil {
		t.Fatal(err)
	}
	data := sut.Synth(3000, s.dims, 5)
	return newOracle(&s, queryPool(s.dims, 5), data), data
}

var (
	noInserts = map[uint64]sut.Tuple{}
	noDeletes = map[uint64]bool{}
)

// within is what the peers of a scoped query return at most: their tuples
// inside the scope.
func within(scope sut.Box, data []sut.Tuple) []sut.Tuple {
	var in []sut.Tuple
	for _, t := range data {
		if scope.Contains(t.Vec) {
			in = append(in, t)
		}
	}
	return in
}

// The whole dataset is a valid candidate superset: Finish reduces it to the
// exact answer, which the oracle must accept for every family.
func TestOracleAcceptsExactAnswers(t *testing.T) {
	o, data := oracleFixture(t)
	scope := o.pool[0].box
	for _, q := range []sut.Query{
		{Family: sut.TopK, K: 10, Weights: []float64{0.3, 0.9}},
		{Family: sut.KNN, K: 10, Center: []float64{0.4, 0.6}},
		{Family: sut.TopK, K: 16, Weights: o.pool[0].weights, Scope: &scope},
		{Family: sut.Skyline},
	} {
		candidates := data
		if q.Scope != nil {
			candidates = within(*q.Scope, data)
		}
		if err := o.check(q, candidates, noInserts, noDeletes); err != nil {
			t.Errorf("%s: exact answer rejected: %v", q.Family, err)
		}
	}
}

// A planted wrong answer and a planted missing answer must both be counted.
func TestOracleCatchesWrongAndMissing(t *testing.T) {
	o, data := oracleFixture(t)
	for _, q := range []sut.Query{
		{Family: sut.TopK, K: 10, Weights: []float64{0.3, 0.9}},
		{Family: sut.KNN, K: 10, Center: []float64{0.4, 0.6}},
		{Family: sut.Skyline},
	} {
		exact := sut.Finish(q, data)
		best := exact[0]

		// Missing: the peer holding the best tuple never answered.
		var without []sut.Tuple
		for _, t := range data {
			if t.ID != best.ID {
				without = append(without, t)
			}
		}
		if err := o.check(q, without, noInserts, noDeletes); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("%s: answer without tuple %d accepted (%v)", q.Family, best.ID, err)
		}

		// Wrong: a tuple that is not in the dataset ranks first.
		forged := sut.Tuple{ID: 1 << 50, Vec: make([]float64, len(best.Vec))}
		for i, v := range best.Vec {
			forged.Vec[i] = v - 1e-3
		}
		if q.Family == sut.KNN {
			forged.Vec = append([]float64(nil), q.Center...)
		}
		wrong := append([]sut.Tuple{forged}, data...)
		if err := o.check(q, wrong, noInserts, noDeletes); err == nil {
			t.Errorf("%s: forged tuple accepted", q.Family)
		}
	}

	// Too few: k answers were asked for and the dataset has them.
	q := sut.Query{Family: sut.TopK, K: 10, Weights: []float64{1, 1}}
	if err := o.check(q, sut.Finish(q, data)[:9], noInserts, noDeletes); err == nil {
		t.Error("nine answers for k=10 accepted")
	}
}

// Ties at the cut-off may be broken either way: the comparison is by rank
// value, not by ID.
func TestOracleComparesTiesByValue(t *testing.T) {
	s, _ := findSpec("fanout_cpu")
	twin := func(id uint64, x float64) sut.Tuple { return sut.Tuple{ID: id, Vec: []float64{x, x, x}} }
	data := []sut.Tuple{twin(1, 0.1), twin(2, 0.2), twin(3, 0.2), twin(4, 0.9)}
	o := newOracle(&s, nil, data)
	q := sut.Query{Family: sut.TopK, K: 2, Weights: []float64{1, 1, 1}}
	for _, answer := range [][]sut.Tuple{{data[0], data[1]}, {data[0], data[2]}} {
		if err := o.check(q, answer, noInserts, noDeletes); err != nil {
			t.Errorf("tie broken as %v rejected: %v", answer, err)
		}
	}
	if err := o.check(q, []sut.Tuple{data[0], data[3]}, noInserts, noDeletes); err == nil {
		t.Error("an answer that skips both tied tuples was accepted")
	}
}

// A PARTIAL reply and an oracle mismatch are failures and make the run
// incorrect; a stale answer after an acknowledged write is a mismatch.
func TestVerifyCountsPartialStaleAndInFlight(t *testing.T) {
	o, data := oracleFixture(t)
	scope := o.pool[3].box
	read := op{Kind: opScopedTopK, K: 16, Box: 3}
	fresh := sut.Tuple{ID: insertedBase + 1, Vec: []float64{scope.Lo[0] + 1e-6, scope.Lo[1] + 1e-6}} // ranks first
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	data = within(scope, data)
	withFresh := append([]sut.Tuple{fresh}, data...)
	recs := []record{
		{op: read, start: at(0), end: at(1), sampled: true, candidates: data},
		{op: op{Kind: opInsert, Box: 3, Tuple: fresh}, start: at(2), end: at(6), acks: 1},
		// In flight together with the insert: either view is right.
		{op: read, start: at(3), end: at(5), sampled: true, candidates: data},
		{op: read, start: at(4), end: at(5), sampled: true, candidates: withFresh},
		// After the acknowledgement: the old view is a stale cache entry.
		{op: read, start: at(7), end: at(8), sampled: true, candidates: withFresh},
		{op: read, start: at(9), end: at(10), sampled: true, candidates: data},
		{op: read, start: at(11), end: at(12), outcome: partialOutcome},
	}
	o.verify(recs)
	want := []outcome{okOutcome, okOutcome, okOutcome, okOutcome, okOutcome, mismatchOutcome, partialOutcome}
	for i, w := range want {
		if recs[i].outcome != w {
			t.Errorf("record %d: outcome %s (%s), want %s", i, recs[i].outcome, recs[i].err, w)
		}
	}
	if _, ok := o.added[fresh.ID]; !ok {
		t.Error("the acknowledged insert was not folded into the oracle's dataset")
	}

	res := &runResult{Correct: true, failures: map[string]int{}}
	res.tally(recs)
	if res.Attempted != 7 || res.Failed != 2 || res.Correct {
		t.Errorf("tally: attempted %d failed %d correct %v; want 7, 2, false", res.Attempted, res.Failed, res.Correct)
	}
}

// The oracle's skyline is its own code; it must agree with the system's on a
// dataset neither was tuned to.
func TestBruteSkylineAgreesWithSystem(t *testing.T) {
	data := sut.Synth(4000, 3, 9)
	mine := bruteSkyline(data)
	theirs := sut.Finish(sut.Query{Family: sut.Skyline}, data)
	if len(mine) != len(theirs) || len(mine) == 0 {
		t.Fatalf("skyline sizes differ: oracle %d, system %d", len(mine), len(theirs))
	}
	for _, t2 := range theirs {
		if !mine[vecKey(t2.Vec)] {
			t.Errorf("system skyline point %v is not in the oracle's", t2.Vec)
		}
	}
}
