// Package diversify instantiates RIPPLE for k-diversification queries (§6 of
// the paper) — the first distributed treatment of this query type. The
// objective (Equation 1, minimised: low = relevant and diverse)
//
//	f(O, q) = λ·max_{x∈O} dr(x, q) − (1−λ)·min_{y,z∈O} dv(y, z)
//
// is optimised greedily: the single-tuple diversification sub-query (find
// t* ∉ O minimising the marginal score φ(t, q, O) of Equation 3) is a RIPPLE
// instantiation (Algorithms 16-21), and the full query is the iterative
// improve loop of Algorithms 22-23 built on top of it.
package diversify

import (
	"math"
	"sync"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/overlay"
	"ripple/internal/plan"
	"ripple/internal/sim"
	"ripple/internal/storage"
)

// Query carries the k-diversification parameters: the query point, the
// relevance/diversity trade-off λ ∈ [0,1], and the two distance functions
// (the paper uses L1 for both on the MIRFLICKR workload).
type Query struct {
	Q      geom.Point
	Lambda float64
	Dr, Dv geom.Metric
}

// NewQuery returns a Query with the paper's defaults (L1 metrics).
func NewQuery(q geom.Point, lambda float64) Query {
	return Query{Q: q, Lambda: lambda, Dr: geom.L1, Dv: geom.L1}
}

// dvDiameter is the diversity value assigned to sets with fewer than two
// members, making the objective well-defined during greedy construction: the
// dv-diameter of the unit domain (an unreachable ideal, so growing a set
// always "pays" the true pairwise distance).
func (q Query) dvDiameter() float64 {
	d := len(q.Q)
	return q.Dv.Dist(geom.Origin(d), onesPoint(d))
}

func onesPoint(d int) geom.Point {
	p := make(geom.Point, d)
	for i := range p {
		p[i] = 1
	}
	return p
}

// Objective evaluates Equation 1 for a set O (lower is better).
func (q Query) Objective(O []dataset.Tuple) float64 {
	if len(O) == 0 {
		return 0
	}
	maxRel := math.Inf(-1)
	for _, x := range O {
		if d := q.Dr.Dist(x.Vec, q.Q); d > maxRel {
			maxRel = d
		}
	}
	minPair := q.dvDiameter()
	for i := range O {
		for j := i + 1; j < len(O); j++ {
			if d := q.Dv.Dist(O[i].Vec, O[j].Vec); d < minPair {
				minPair = d
			}
		}
	}
	return q.Lambda*maxRel - (1-q.Lambda)*minPair
}

// baseContext caches the O-dependent constants of φ — the maximum relevance
// distance and the minimum pairwise diversity of the base set — so that
// evaluating φ for a candidate costs O(|O|) instead of O(|O|²). All peers
// evaluating the same single-tuple query share the same O, so the context is
// computed once per query.
type baseContext struct {
	maxRel  float64
	minPair float64
}

func (q Query) context(O []dataset.Tuple) baseContext {
	c := baseContext{maxRel: math.Inf(-1), minPair: q.dvDiameter()}
	for _, x := range O {
		if d := q.Dr.Dist(x.Vec, q.Q); d > c.maxRel {
			c.maxRel = d
		}
	}
	for i := range O {
		for j := i + 1; j < len(O); j++ {
			if d := q.Dv.Dist(O[i].Vec, O[j].Vec); d < c.minPair {
				c.minPair = d
			}
		}
	}
	return c
}

// Phi evaluates the marginal score of Equation 3: the increase of the
// objective when t joins O. The four cases of the paper collapse to
//
//	φ(t,q,O) = λ·(dr(t,q) − max_{x∈O}dr(x,q))₊ + (1−λ)·(min-pair(O) − min_{x∈O}dv(t,x))₊
//
// with (·)₊ the positive part; for empty O it degenerates to pure relevance.
func (q Query) Phi(t geom.Point, O []dataset.Tuple) float64 {
	if len(O) == 0 {
		return q.Lambda * q.Dr.Dist(t, q.Q)
	}
	return q.phiCtx(t, O, q.context(O))
}

// PhiScorer returns Phi against a fixed O with context(O) computed once, so
// scoring many candidates against the same base set costs O(|O|) each
// instead of O(|O|²).
func (q Query) PhiScorer(O []dataset.Tuple) func(t geom.Point) float64 {
	c := q.context(O)
	return func(t geom.Point) float64 { return q.phiCtx(t, O, c) }
}

func (q Query) phiCtx(t geom.Point, O []dataset.Tuple, c baseContext) float64 {
	if len(O) == 0 {
		return q.Lambda * q.Dr.Dist(t, q.Q)
	}
	minToT := math.Inf(1)
	for _, x := range O {
		if d := q.Dv.Dist(t, x.Vec); d < minToT {
			minToT = d
		}
	}
	return q.Lambda*pos(q.Dr.Dist(t, q.Q)-c.maxRel) + (1-q.Lambda)*pos(c.minPair-minToT)
}

// PhiLowerRect is φ⁻ over a single box: a lower bound of Phi over every
// point of the box, combining the relevance lower bound (min distance of the
// box to q) with the diversity lower bound (no point of the box can be
// farther from its nearest O-member than min_x MaxDist(x, box)).
func (q Query) PhiLowerRect(b geom.Rect, O []dataset.Tuple) float64 {
	if len(O) == 0 {
		return q.Lambda * q.Dr.MinDist(q.Q, b)
	}
	return q.phiLowerRectCtx(b, O, q.context(O))
}

func (q Query) phiLowerRectCtx(b geom.Rect, O []dataset.Tuple, c baseContext) float64 {
	if len(O) == 0 {
		return q.Lambda * q.Dr.MinDist(q.Q, b)
	}
	minToBoxUB := math.Inf(1)
	for _, x := range O {
		if d := q.Dv.MaxDist(x.Vec, b); d < minToBoxUB {
			minToBoxUB = d
		}
	}
	return q.Lambda*pos(q.Dr.MinDist(q.Q, b)-c.maxRel) + (1-q.Lambda)*pos(c.minPair-minToBoxUB)
}

func pos(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// Processor is the RIPPLE plug-in for the single-tuple diversification query
// (Algorithms 16-21). Its state is the best φ score found so far (τ).
type Processor struct {
	Query Query
	// Base is the set O the new tuple must diversify; its members are
	// excluded as candidates.
	Base []dataset.Tuple
	// Exclude lists tuple IDs that may not be returned (the full current
	// result set during greedy improvement).
	Exclude map[uint64]bool
	// Tau0 is the initial threshold (+Inf for a plain query; the greedy
	// driver passes the improvement bound of Algorithm 23).
	Tau0 float64

	ctx     baseContext
	ctxOnce sync.Once
}

// prepare caches the O-dependent φ constants once; safe under concurrent use.
func (p *Processor) prepare() {
	p.ctxOnce.Do(func() { p.ctx = p.Query.context(p.Base) })
}

var _ core.Processor = (*Processor)(nil)
var _ plan.Hinter = (*Processor)(nil)

// PlanHints implements plan.Hinter. One diversification pass retrieves a
// single improvement candidate over the base set, so K counts the tuples the
// pass must diversify against rather than a result size.
func (p *Processor) PlanHints() plan.Hints { return plan.Hints{Family: "diversify", K: len(p.Base) + 1} }

type state float64

// InitialState implements core.Processor.
func (p *Processor) InitialState() core.State { return state(p.Tau0) }

// StateTuples implements core.Processor: states carry only a threshold.
func (p *Processor) StateTuples(core.State) int { return 0 }

// bestLocal is the paper's getMostDiverseLocalObject: the eligible local
// tuple with the lowest φ score (ties by ID), or nil. Excluded tuples are
// keyed +Inf, so the store's best-first minimum — which on an R-tree only
// opens subtrees whose φ⁻ can still win — lands on the same tuple the
// original insertion-order scan selected.
func (p *Processor) bestLocal(w overlay.Node) (*dataset.Tuple, float64) {
	p.prepare()
	key := func(t dataset.Tuple) float64 {
		if p.Exclude[t.ID] {
			return math.Inf(1)
		}
		return p.Query.phiCtx(t.Vec, p.Base, p.ctx)
	}
	lower := func(b geom.Rect) float64 { return p.Query.phiLowerRectCtx(b, p.Base, p.ctx) }
	t, s, ok := storage.MinBy(storage.Of(w), key, lower)
	if !ok {
		return nil, math.Inf(1)
	}
	return &t, s
}

// LocalState implements computeLocalState (Algorithm 16).
func (p *Processor) LocalState(w overlay.Node, global core.State) core.State {
	tau := float64(global.(state))
	if _, s := p.bestLocal(w); s < tau {
		return state(s)
	}
	return state(tau)
}

// GlobalState implements computeGlobalState (Algorithm 17).
func (p *Processor) GlobalState(w overlay.Node, global, local core.State) core.State {
	return local
}

// MergeStates implements updateLocalState (Algorithm 19).
func (p *Processor) MergeStates(w overlay.Node, states []core.State) core.State {
	best := math.Inf(1)
	for _, s := range states {
		if v := float64(s.(state)); v < best {
			best = v
		}
	}
	return state(best)
}

// LinkRelevant implements the content half of isLinkRelevant (Algorithm 20).
func (p *Processor) LinkRelevant(w overlay.Node, region overlay.Region, global core.State) bool {
	return p.phiLowerRegion(region) < float64(global.(state))
}

// LinkPriority implements comp (Algorithm 21).
func (p *Processor) LinkPriority(w overlay.Node, region overlay.Region) float64 {
	return p.phiLowerRegion(region)
}

func (p *Processor) phiLowerRegion(region overlay.Region) float64 {
	p.prepare()
	best := math.Inf(1)
	for _, b := range region.Boxes {
		if v := p.Query.phiLowerRectCtx(b, p.Base, p.ctx); v < best {
			best = v
		}
	}
	return best
}

// LocalAnswer implements computeLocalAnswer (Algorithm 18): the best local
// tuple, only if it attains the final local threshold.
func (p *Processor) LocalAnswer(w overlay.Node, local core.State) []dataset.Tuple {
	t, s := p.bestLocal(w)
	if t != nil && s == float64(local.(state)) {
		return []dataset.Tuple{*t}
	}
	return nil
}

// RunSingle answers a single-tuple diversification query: the tuple outside
// base (and exclude) minimising φ, provided its score beats tau0. Returns
// nil when no tuple qualifies.
func RunSingle(initiator overlay.Node, q Query, base []dataset.Tuple, exclude map[uint64]bool, tau0 float64, r int) (*dataset.Tuple, sim.Stats) {
	p := &Processor{Query: q, Base: base, Exclude: exclude, Tau0: tau0}
	res := core.Run(initiator, p, r)
	phi := q.PhiScorer(base)
	var best *dataset.Tuple
	bestScore := math.Inf(1)
	for i := range res.Answers {
		t := &res.Answers[i]
		s := phi(t.Vec)
		if s < bestScore || (s == bestScore && best != nil && t.ID < best.ID) {
			best, bestScore = t, s
		}
	}
	if best != nil && bestScore >= tau0 {
		best = nil
	}
	return best, res.Stats
}

// BruteSingle is the centralized oracle for RunSingle, used by tests and the
// baseline-fairness checks.
func BruteSingle(ts []dataset.Tuple, q Query, base []dataset.Tuple, exclude map[uint64]bool, tau0 float64) *dataset.Tuple {
	phi := q.PhiScorer(base)
	var best *dataset.Tuple
	bestScore := math.Inf(1)
	for i := range ts {
		t := &ts[i]
		if exclude[t.ID] {
			continue
		}
		s := phi(t.Vec)
		if s < bestScore || (s == bestScore && best != nil && t.ID < best.ID) {
			best, bestScore = t, s
		}
	}
	if best != nil && bestScore >= tau0 {
		return nil
	}
	return best
}
