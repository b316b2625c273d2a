package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ripple/benchmark/sut"
)

// oracle is the loadgen's own brute-force judge. It owns the dataset — the
// generated base plus the writes this run has had acknowledged — and checks
// sampled answers after a phase ends, never while the clock runs. Rank
// answers are compared by score or distance, so a tie at the cut-off may be
// broken either way; skylines by their set of distinct points.
type oracle struct {
	s     *spec
	pool  []poolQuery
	base  []sut.Tuple
	added map[uint64]sut.Tuple // acknowledged inserts not yet deleted

	skyline map[string]bool // distinct skyline points of the base; built on first use
}

func newOracle(s *spec, pool []poolQuery, base []sut.Tuple) *oracle {
	return &oracle{s: s, pool: pool, base: base, added: make(map[uint64]sut.Tuple)}
}

// badness ranks a tuple for a rank query: lower is better.
func badness(q sut.Query, v []float64) float64 {
	if q.Family == sut.KNN {
		d := 0.0
		for i, c := range q.Center {
			d += (v[i] - c) * (v[i] - c)
		}
		return math.Sqrt(d)
	}
	score := 0.0
	for i, w := range q.Weights {
		score += w * (1 - v[i])
	}
	return -score
}

// write is one acknowledged mutation and the interval it was in flight.
type write struct {
	kind       opKind
	t          sut.Tuple
	start, end time.Time
}

// verify checks the sampled reads of one phase and marks each rejected one
// as a mismatch. It then folds the phase's acknowledged writes into the
// dataset, so the next phase starts from the right state.
func (o *oracle) verify(recs []record) {
	var writes []write
	for i := range recs {
		r := &recs[i]
		if r.op.Kind.isWrite() && !r.failed() {
			writes = append(writes, write{r.op.Kind, r.op.Tuple, r.start, r.end})
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].end.Before(writes[j].end) })

	var sampled []*record
	for i := range recs {
		r := &recs[i]
		if r.sampled && !r.op.Kind.isWrite() && !r.failed() {
			sampled = append(sampled, r)
		}
	}
	sort.Slice(sampled, func(i, j int) bool { return sampled[i].start.Before(sampled[j].start) })

	applied := 0
	for _, r := range sampled {
		for applied < len(writes) && writes[applied].end.Before(r.start) {
			o.apply(writes[applied])
			applied++
		}
		// Writes in flight while the read ran may or may not be visible to it.
		maybeIn := map[uint64]sut.Tuple{}
		maybeOut := map[uint64]bool{}
		for _, w := range writes[applied:] {
			if w.start.Before(r.end) {
				if w.kind == opInsert {
					maybeIn[w.t.ID] = w.t
				} else {
					maybeOut[w.t.ID] = true
				}
			}
		}
		if err := o.check(r.op.query(o.s, o.pool), r.candidates, maybeIn, maybeOut); err != nil {
			r.outcome, r.err = mismatchOutcome, err.Error()
		}
		r.candidates = nil
	}
	for ; applied < len(writes); applied++ {
		o.apply(writes[applied])
	}
}

func (o *oracle) apply(w write) {
	if w.kind == opInsert {
		o.added[w.t.ID] = w.t
	} else {
		delete(o.added, w.t.ID)
	}
}

// each visits every tuple certainly in the dataset.
func (o *oracle) each(visit func(sut.Tuple)) {
	for _, t := range o.base {
		visit(t)
	}
	for _, t := range o.added {
		visit(t)
	}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check judges one reply. maybeIn are tuples an in-flight insert may have
// added, maybeOut IDs an in-flight delete may have removed; with both empty
// the check is exact.
func (o *oracle) check(q sut.Query, candidates []sut.Tuple, maybeIn map[uint64]sut.Tuple, maybeOut map[uint64]bool) error {
	answer := sut.Finish(q, candidates)
	if q.Family == sut.Skyline {
		return o.checkSkyline(answer)
	}
	inScope := func(v []float64) bool { return q.Scope == nil || q.Scope.Contains(v) }

	got := make(map[uint64]sut.Tuple, len(answer))
	worst := math.Inf(-1)
	for _, t := range answer {
		if _, dup := got[t.ID]; dup {
			return fmt.Errorf("%s: tuple %d twice in the answer", q.Family, t.ID)
		}
		got[t.ID] = t
		if !inScope(t.Vec) {
			return fmt.Errorf("%s: tuple %d lies outside the scope", q.Family, t.ID)
		}
		worst = math.Max(worst, badness(q, t.Vec))
	}
	if len(answer) > q.K {
		return fmt.Errorf("%s: %d answers for k=%d", q.Family, len(answer), q.K)
	}

	// Every answer must be a tuple that exists; every tuple that certainly
	// exists and beats the answer's worst member must be in the answer.
	found, sure := 0, 0
	var err error
	o.each(func(t sut.Tuple) {
		if err != nil || !inScope(t.Vec) {
			return
		}
		if a, ok := got[t.ID]; ok && sameVec(a.Vec, t.Vec) {
			found++
		}
		if maybeOut[t.ID] {
			return
		}
		sure++
		if _, ok := got[t.ID]; !ok && (len(answer) < q.K || badness(q, t.Vec) < worst) {
			err = fmt.Errorf("%s: tuple %d (rank value %.6g) is missing from the answer (worst kept %.6g)",
				q.Family, t.ID, badness(q, t.Vec), worst)
		}
	})
	if err != nil {
		return err
	}
	for id, a := range got {
		if t, ok := maybeIn[id]; ok && sameVec(a.Vec, t.Vec) {
			found++
		}
	}
	if found != len(answer) {
		return fmt.Errorf("%s: %d of %d answers are not tuples of the dataset", q.Family, len(answer)-found, len(answer))
	}
	if want := min(q.K, sure); len(answer) < want {
		return fmt.Errorf("%s: %d answers, want %d", q.Family, len(answer), want)
	}
	return nil
}

func vecKey(v []float64) string { return fmt.Sprint(v) }

// checkSkyline compares distinct points; the skyline workloads carry no
// writes, so the base's skyline is computed once.
func (o *oracle) checkSkyline(answer []sut.Tuple) error {
	if len(o.added) > 0 {
		return fmt.Errorf("skyline: oracle has no skyline over a mutated dataset")
	}
	if o.skyline == nil {
		o.skyline = bruteSkyline(o.base)
	}
	got := make(map[string]bool, len(answer))
	for _, t := range answer {
		got[vecKey(t.Vec)] = true
	}
	for k := range o.skyline {
		if !got[k] {
			return fmt.Errorf("skyline: point %s is missing from the answer", k)
		}
	}
	for k := range got {
		if !o.skyline[k] {
			return fmt.Errorf("skyline: point %s is dominated or not in the dataset", k)
		}
	}
	return nil
}

// bruteSkyline returns the distinct non-dominated points (lower is better on
// every dimension). Sorting by coordinate sum means a later point never
// dominates an earlier one, so one pass against the skyline so far suffices.
func bruteSkyline(ts []sut.Tuple) map[string]bool {
	sorted := append([]sut.Tuple(nil), ts...)
	sum := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	sort.Slice(sorted, func(i, j int) bool { return sum(sorted[i].Vec) < sum(sorted[j].Vec) })
	var sky [][]float64
	for _, t := range sorted {
		dominated := false
		for _, s := range sky {
			if dominatesOrEqual(s, t.Vec) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, t.Vec)
		}
	}
	// Equal floating-point sums can hide a dominator behind its victim, so
	// the survivors are checked against each other once more.
	out := make(map[string]bool, len(sky))
	for i, v := range sky {
		dominated := false
		for j, u := range sky {
			if i != j && dominatesOrEqual(u, v) && !sameVec(u, v) {
				dominated = true
				break
			}
		}
		if !dominated {
			out[vecKey(v)] = true
		}
	}
	return out
}

func dominatesOrEqual(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}
