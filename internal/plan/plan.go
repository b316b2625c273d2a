// Package plan is the adaptive query planner: it chooses a query's execution
// mode — fast (r = 0), slow (r = ∞) or ripple(r) — per query, from a
// self-tuning cost model instead of a static user-supplied knob.
//
// The planner estimates a composite cost
//
//	cost = α·latency + β·messages
//
// for every candidate ripple parameter ("arm") and picks the cheapest. Arms
// are bucketed by (query family, dimensionality, overlay depth, result-size
// magnitude); each bucket's estimates are seeded by a closed-form prior
// derived from the paper's §3.2 worst-case analysis (Lemmas 1–3, reproduced
// in prior.go so the package stays import-light) and then refined online:
// every completed query reports its observed hop latency and message count
// back through Observe, which folds them in with an exponentially weighted
// moving average. A deterministic exploration schedule (every ExploreEvery-th
// decision per bucket rotates through the non-best arms) keeps stale
// estimates from pinning a bucket forever — no randomness and no wall clock,
// so planned runs stay replayable under the repository's determinism
// invariants.
//
// The planner is shared mutable state on the initiator: one instance serves
// every query of a runtime (core.Options.Planner, netpeer.Options) and all
// access is serialised by an internal mutex.
package plan

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"ripple/internal/metrics"
	"ripple/internal/storage"
)

// RAuto is the sentinel ripple parameter meaning "let the planner choose".
// Runtimes that receive RAuto without a configured planner degrade to the
// fast algorithm (r = 0) — the documented fallback, so an auto query against
// a legacy or unplanned peer still answers.
const RAuto = -1

// RSlow is the effectively infinite ripple parameter the planner uses for
// its slow arm. It matches the facade's Slow constant: no overlay approaches
// depth 2^20, so the parameter never decays to fast mode.
const RSlow = 1 << 20

// Mode names the three template algorithms a decision can select.
type Mode int

const (
	// ModeFast is Algorithm 1: forward to all relevant links at once (r = 0).
	ModeFast Mode = iota
	// ModeRipple is Algorithm 3 with an intermediate r.
	ModeRipple
	// ModeSlow is Algorithm 2: one link at a time, bound-pruned (r = ∞).
	ModeSlow
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFast:
		return "fast"
	case ModeSlow:
		return "slow"
	default:
		return "ripple"
	}
}

// ModeOf classifies a concrete ripple parameter.
func ModeOf(r int) Mode {
	switch {
	case r <= 0:
		return ModeFast
	case r >= RSlow:
		return ModeSlow
	default:
		return ModeRipple
	}
}

// Query describes one query to be planned: everything the cost model reads.
// Zero fields are tolerated — the planner falls back to conservative
// defaults — so every runtime can fill in whatever it knows.
type Query struct {
	// Family is the query type ("topk", "skyline", "diversify", "knn", ...).
	Family string
	// K is the result size for top-k-shaped families (0 when not applicable).
	K int
	// Dims is the dimensionality of the indexed domain.
	Dims int
	// OverlaySize is the number of peers when known (the harness knows it; a
	// TCP peer does not and leaves it 0).
	OverlaySize int
	// Degree is the initiator's link count. Over MIDAS the link count tracks
	// the virtual k-d tree depth, so it substitutes for log2(OverlaySize)
	// when the overlay size is unknown.
	Degree int
	// Local is the initiator's storage-engine statistics (engine kind, tuple
	// count, tree height): the per-zone local-work input of the cost model.
	Local storage.Stats
}

// deltaMax estimates ∆, the MIDAS virtual-tree depth the latency lemmas are
// parameterised by.
func (q Query) deltaMax() int {
	if q.OverlaySize > 1 {
		return log2int(q.OverlaySize)
	}
	if q.Degree > 0 {
		return q.Degree
	}
	return 4
}

// peers estimates the overlay size.
func (q Query) peers() int {
	if q.OverlaySize > 1 {
		return q.OverlaySize
	}
	return 1 << uint(q.deltaMax())
}

// key buckets the query for the cost table: family, dimensionality, overlay
// depth, and the magnitude of k. Buckets are coarse on purpose — estimates
// must accumulate across queries that behave alike.
func (q Query) key() string {
	family := q.Family
	if family == "" {
		family = "?"
	}
	return fmt.Sprintf("%s/d%d/t%d/k%d", family, q.Dims, q.deltaMax(), bits.Len(uint(q.K)))
}

// Hints is the planner-relevant shape of a query, reported by processors that
// implement Hinter so runtimes can plan without knowing concrete types.
type Hints struct {
	// Family names the query type.
	Family string
	// K is the result size (0 when the family has none).
	K int
}

// Hinter is implemented by query processors that can describe themselves to
// the planner.
type Hinter interface {
	PlanHints() Hints
}

// Decision is one planning outcome.
type Decision struct {
	// Mode classifies R.
	Mode Mode
	// R is the ripple parameter the query should run with.
	R int
	// Cost is the arm's estimated composite cost at decision time.
	Cost float64
	// Explored marks a decision made by the deterministic exploration
	// schedule rather than greedily (the arm was not the current minimum).
	Explored bool
	// Key is the cost-table bucket the decision was read from.
	Key string
}

// String renders the decision the way traces and replies carry it:
// "fast", "ripple(2)", "slow", with "+explore" appended for exploration picks.
func (d Decision) String() string {
	s := d.Mode.String()
	if d.Mode == ModeRipple {
		s = fmt.Sprintf("ripple(%d)", d.R)
	}
	if d.Explored {
		s += "+explore"
	}
	return s
}

// Options tunes a Planner. The zero value selects the defaults.
type Options struct {
	// Alpha weights observed latency (hops) in the composite cost. Zero
	// means the default (1).
	Alpha float64
	// Beta weights observed messages. Zero means the default (0.05): one
	// hop of latency trades against twenty messages, which keeps the slow
	// extreme from winning every bucket on congestion alone.
	Beta float64
	// Gamma is the EWMA blending factor for observations: estimate =
	// γ·observed + (1−γ)·estimate. Zero means the default (0.3).
	Gamma float64
	// ExploreEvery makes every n-th decision per bucket rotate through the
	// non-best arms so estimates stay current. Zero means the default (16);
	// negative disables exploration (pure greedy, fully static once
	// converged).
	ExploreEvery int
	// Arms are the candidate ripple parameters. Nil means the default
	// {0, 1, 2, 4, RSlow}.
	Arms []int
	// Metrics optionally receives the ripple_plan_* series (decision counts
	// per mode, explorations, observations, live bucket count). Nil disables
	// instrumentation at zero cost.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Beta == 0 {
		o.Beta = 0.05
	}
	if o.Gamma == 0 {
		o.Gamma = 0.3
	}
	if o.ExploreEvery == 0 {
		o.ExploreEvery = 16
	}
	if len(o.Arms) == 0 {
		o.Arms = []int{0, 1, 2, 4, RSlow}
	}
	return o
}

// arm is one candidate ripple parameter's running estimate within a bucket.
type arm struct {
	cost  float64 // current composite-cost estimate (prior, then EWMA)
	prior float64 // the closed-form seed, kept for Explain
	obs   int     // observations folded in
}

// entry is one bucket of the cost table.
type entry struct {
	arms  []arm
	picks int // decisions served from this bucket (drives exploration)
}

// Planner is the shared, self-tuning cost model. Safe for concurrent use.
type Planner struct {
	opts Options

	mu    sync.Mutex
	table map[string]*entry

	decisions    [3]*metrics.Counter // indexed by Mode
	explorations *metrics.Counter
	observations *metrics.Counter
	buckets      *metrics.Gauge
}

// New builds a planner. A nil Options.Metrics registry is fine (instruments
// are nil-safe).
func New(o Options) *Planner {
	o = o.withDefaults()
	p := &Planner{opts: o, table: make(map[string]*entry)}
	r := o.Metrics
	for _, m := range []Mode{ModeFast, ModeRipple, ModeSlow} {
		p.decisions[m] = r.Counter(
			metrics.Label("ripple_plan_decisions_total", "mode", m.String()),
			"planner decisions by chosen mode")
	}
	p.explorations = r.Counter("ripple_plan_explorations_total",
		"decisions made by the deterministic exploration schedule instead of greedily")
	p.observations = r.Counter("ripple_plan_observations_total",
		"completed queries whose observed cost was folded into the model")
	p.buckets = r.Gauge("ripple_plan_buckets",
		"live cost-table buckets (query-shape classes with estimates)")
	return p
}

// Default is a planner with default options and no metrics.
func Default() *Planner { return New(Options{}) }

// entryFor returns the bucket for q, seeding priors on first use. Callers
// hold p.mu.
func (p *Planner) entryFor(q Query) *entry {
	key := q.key()
	e := p.table[key]
	if e == nil {
		e = &entry{arms: make([]arm, len(p.opts.Arms))}
		for i, r := range p.opts.Arms {
			c := p.priorCost(q, r)
			e.arms[i] = arm{cost: c, prior: c}
		}
		p.table[key] = e
		p.buckets.Set(int64(len(p.table)))
	}
	return e
}

// Choose picks the execution mode and ripple parameter for q.
func (p *Planner) Choose(q Query) Decision {
	p.mu.Lock()
	e := p.entryFor(q)
	e.picks++
	best := 0
	for i := range e.arms {
		if e.arms[i].cost < e.arms[best].cost {
			best = i
		}
	}
	idx, explored := best, false
	if n := p.opts.ExploreEvery; n > 0 && len(e.arms) > 1 && e.picks%n == 0 {
		// Rotate deterministically through the non-best arms: the rotation
		// counter is the bucket's own decision count, so replaying the same
		// query sequence replays the same exploration picks.
		rot := (e.picks/n - 1) % (len(e.arms) - 1)
		idx = rot
		if idx >= best {
			idx++
		}
		explored = true
	}
	r := p.opts.Arms[idx]
	d := Decision{Mode: ModeOf(r), R: r, Cost: e.arms[idx].cost, Explored: explored, Key: q.key()}
	p.mu.Unlock()

	p.decisions[d.Mode].Inc()
	if explored {
		p.explorations.Inc()
	}
	return d
}

// Observe feeds one completed query's measured cost back into the model:
// latency in hops and total messages, exactly as sim.Stats accounts them.
// The r reported is mapped onto the nearest arm, so static runs (and legacy
// callers with off-arm parameters) refine the model too.
func (p *Planner) Observe(q Query, r, latencyHops, msgs int) {
	if latencyHops < 0 || msgs < 0 {
		return
	}
	observed := p.opts.Alpha*float64(latencyHops) + p.opts.Beta*float64(msgs)
	p.mu.Lock()
	e := p.entryFor(q)
	a := &e.arms[p.armFor(r)]
	a.cost = p.opts.Gamma*observed + (1-p.opts.Gamma)*a.cost
	a.obs++
	p.mu.Unlock()
	p.observations.Inc()
}

// armFor maps a concrete ripple parameter onto the nearest arm index.
// Distance is taken in log space: ripple parameters act multiplicatively
// (each unit of r roughly doubles the sequential rounds), so r = 2^19 is a
// slow-family setting, not "closest to 4". Callers hold p.mu.
func (p *Planner) armFor(r int) int {
	if r < 0 {
		r = 0
	}
	best, bestDist := 0, math.Inf(1)
	for i, a := range p.opts.Arms {
		d := math.Abs(math.Log2(1+float64(a)) - math.Log2(1+float64(r)))
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// ArmEstimate is one row of an Explain table.
type ArmEstimate struct {
	R            int
	Mode         Mode
	Cost         float64 // current estimate
	Prior        float64 // the closed-form seed
	Observations int
	Chosen       bool // the arm a greedy Choose would pick now
}

// Explain returns the bucket's full per-arm cost table for q (seeding priors
// if the bucket is new), in arm order, with the greedy pick marked. It never
// advances the exploration schedule — explaining a query does not perturb
// planning.
func (p *Planner) Explain(q Query) []ArmEstimate {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entryFor(q)
	best := 0
	for i := range e.arms {
		if e.arms[i].cost < e.arms[best].cost {
			best = i
		}
	}
	out := make([]ArmEstimate, len(e.arms))
	for i, a := range e.arms {
		r := p.opts.Arms[i]
		out[i] = ArmEstimate{R: r, Mode: ModeOf(r), Cost: a.cost, Prior: a.prior, Observations: a.obs, Chosen: i == best}
	}
	return out
}

func log2int(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n)
}
