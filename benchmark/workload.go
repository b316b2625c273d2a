package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ripple/benchmark/sut"
)

// opKind is one kind of operation in a traffic mix.
type opKind int

const (
	opTopK opKind = iota
	opKNN
	opSkyline
	opScopedTopK
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"topk", "knn", "skyline", "scoped_topk", "insert", "delete"}[k]
}

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

// family is the query family whose processor serves the kind ("" for writes).
func (k opKind) family() string {
	switch k {
	case opTopK, opScopedTopK:
		return sut.TopK
	case opKNN:
		return sut.KNN
	case opSkyline:
		return sut.Skyline
	}
	return ""
}

// mixEntry is one slice of a traffic mix.
type mixEntry struct {
	kind  opKind
	share float64
	k     int
}

// spec is one workload: the fleet, the traffic, and the calibrated open-loop
// rates. Rates are constants calibrated once on the reference box at about
// 0.5x and 0.7x of the seed commit's closed-phase qps (README.md) — not 0.8x:
// on two cores a 0.8x step now and then backs up to the in-flight cap, and a
// workload must be one on which no operation fails. They are never derived at
// run time, so a slower system meets the same offered load.
type spec struct {
	name string
	why  string

	peers  int
	tuples int
	dims   int

	cacheBytes int64
	faultDelay time.Duration
	planAuto   bool

	mix   []mixEntry
	r     int // ripple parameter sent with every read
	depth int // calls each connection keeps outstanding in the closed phase

	rateMid, rateHi float64 // open-phase arrival rates, ops/s
}

const (
	poolBoxes = 64  // zipf_rw: fixed scope boxes
	boxSide   = 0.2 // their side length
	zipfSkew  = 0.9
)

var specs = []spec{
	{
		name: "fanout_cpu",
		why: "16 small shares: storage idles, so cost is wire codec, netpeer RPC/mux/admission " +
			"and the scheduler across 16 processes; a storage change must not move it",
		peers: 16, tuples: 8000, dims: 3,
		mix:   []mixEntry{{opTopK, 0.5, 10}, {opKNN, 0.5, 10}},
		depth: 1, rateMid: 555, rateHi: 775,
	},
	{
		name: "local_heavy",
		why: "4 big shares, at most 3 RPCs a query: nearly all time is peer-local compute in storage; " +
			"an index change shows here and a wire or netpeer change should not",
		peers: 4, tuples: 100000, dims: 3,
		mix:   []mixEntry{{opTopK, 0.45, 50}, {opKNN, 0.45, 50}, {opSkyline, 0.10, 0}},
		depth: 1, rateMid: 150, rateHi: 210,
	},
	{
		name: "zipf_rw",
		why: "cached scoped reads beside 10% writes: route, apply, store rebuild, flood, ack, plus cache " +
			"hit, fill and z-order invalidation; a read gain that makes writes dearer loses qps here",
		peers: 8, tuples: 80000, dims: 2, cacheBytes: 16 << 20,
		mix:   []mixEntry{{opScopedTopK, 0.90, 16}, {opInsert, 0.05, 0}, {opDelete, 0.05, 0}},
		depth: 1, rateMid: 695, rateHi: 970,
	},
	{
		name: "delay_mixed",
		why: "2 ms per-RPC link delay and r=auto: wall time is child wait, not CPU, so it shows stream " +
			"overlap and the planner's choice; a pure CPU saving moves cpu_ms_per_op, not qps",
		peers: 16, tuples: 48000, dims: 3, faultDelay: 2 * time.Millisecond, planAuto: true,
		mix:   []mixEntry{{opTopK, 0.4, 10}, {opKNN, 0.4, 10}, {opSkyline, 0.2, 0}},
		r:     sut.RAuto,
		depth: 4, rateMid: 330, rateHi: 465,
	},
}

// entry returns the mix's slice of the given kind, if it has one.
func (s *spec) entry(kind opKind) (mixEntry, bool) {
	for _, e := range s.mix {
		if e.kind == kind {
			return e, true
		}
	}
	return mixEntry{}, false
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec at a named scale. "smoke" is a 2-peer fleet over a
// small dataset, for the tests; its rates are high enough that a second of
// open loop carries the thousand-odd samples a p99 needs.
func (s spec) scaled(scale string) (spec, error) {
	switch scale {
	case "full", "":
		return s, nil
	case "smoke":
		s.peers, s.tuples = 2, 2000
		s.rateMid, s.rateHi = 1100, 1400
		return s, nil
	}
	return s, fmt.Errorf("unknown scale %q", scale)
}

// op is one generated operation: pure data, a function of the seed only.
type op struct {
	Kind    opKind
	K       int
	Weights []float64 `json:",omitempty"`
	Center  []float64 `json:",omitempty"`
	Box     int       // scoped reads and inserts: index into the query pool
	Tuple   sut.Tuple // writes
}

// query is the read the op sends.
func (o op) query(s *spec, pool []poolQuery) sut.Query {
	q := sut.Query{Family: o.Kind.family(), K: o.K, Weights: o.Weights, Center: o.Center, R: s.r}
	if o.Kind == opScopedTopK {
		q.Scope, q.Weights = &pool[o.Box].box, pool[o.Box].weights
	}
	return q
}

// zipf samples ranks 0..n-1 with P(i) proportional to 1/(i+1)^skew, by
// inverse CDF (math/rand's Zipf needs skew > 1).
type zipf struct {
	cdf []float64
}

func newZipf(n int, skew float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), skew)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// poolQuery is one of the workload's fixed scoped reads: a box and the
// weights asked over it. The pool is fixed so that repeats are byte-identical
// on the wire, which is what a result cache keys on.
type poolQuery struct {
	box     sut.Box
	weights []float64
}

// queryPool is the workload's fixed set of scoped reads, from the seed.
func queryPool(dims int, seed int64) []poolQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x626f786573))
	pool := make([]poolQuery, poolBoxes)
	for i := range pool {
		lo, hi, w := make([]float64, dims), make([]float64, dims), make([]float64, dims)
		for d := range lo {
			lo[d] = rng.Float64() * (1 - boxSide)
			hi[d] = lo[d] + boxSide
			w[d] = randWeight(rng)
		}
		pool[i] = poolQuery{box: sut.Box{Lo: lo, Hi: hi}, weights: w}
	}
	return pool
}

// randWeight is a positive linear weight, bounded away from zero.
func randWeight(rng *rand.Rand) float64 { return 0.1 + 0.9*rng.Float64() }

// insertedBase keeps generated tuple IDs clear of the dataset's.
const insertedBase = uint64(1) << 40

// opStream generates one deterministic operation sequence. Each closed-loop
// slot and the open phase own a stream, so what is sent never depends on
// timing. A delete names a tuple the same stream inserted at least lag
// operations earlier — long enough ago to have been acknowledged — and the
// dataset size stays level.
type opStream struct {
	s    *spec
	rng  *rand.Rand
	pool []poolQuery
	zipf *zipf
	lag  int

	n        int
	nextID   uint64
	inserted []insertedAt // FIFO of this stream's live inserts
}

type insertedAt struct {
	t  sut.Tuple
	at int
}

func newOpStream(s *spec, pool []poolQuery, seed int64, stream, lag int) *opStream {
	return &opStream{
		s:      s,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + 17)),
		pool:   pool,
		zipf:   newZipf(poolBoxes, zipfSkew),
		lag:    lag,
		nextID: insertedBase + uint64(stream)<<24,
	}
}

func (g *opStream) next() op {
	u := g.rng.Float64()
	m := g.s.mix[len(g.s.mix)-1]
	for _, e := range g.s.mix {
		if u < e.share {
			m = e
			break
		}
		u -= e.share
	}
	g.n++
	o := op{Kind: m.kind, K: m.k}
	switch m.kind {
	case opTopK:
		o.Weights = make([]float64, g.s.dims)
		for i := range o.Weights {
			o.Weights[i] = randWeight(g.rng)
		}
	case opScopedTopK:
		o.Box = g.zipf.sample(g.rng)
	case opKNN:
		o.Center = make([]float64, g.s.dims)
		for i := range o.Center {
			o.Center[i] = g.rng.Float64()
		}
	case opDelete:
		if len(g.inserted) > 0 && g.n-g.inserted[0].at >= g.lag {
			o.Tuple = g.inserted[0].t
			g.inserted = g.inserted[1:]
			break
		}
		o.Kind = opInsert // nothing old enough to delete yet
		fallthrough
	case opInsert:
		o.Box = g.zipf.sample(g.rng)
		b := g.pool[o.Box].box
		vec := make([]float64, g.s.dims)
		for i := range vec {
			vec[i] = b.Lo[i] + g.rng.Float64()*(b.Hi[i]-b.Lo[i])
		}
		o.Tuple = sut.Tuple{ID: g.nextID, Vec: vec}
		g.nextID++
		g.inserted = append(g.inserted, insertedAt{t: o.Tuple, at: g.n})
	}
	return o
}

// arrivals is a seeded Poisson schedule: offsets from the phase start at
// which requests fall due, at the given rate for the given length.
func arrivals(seed int64, rate float64, length time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*69069 + int64(rate*1000)))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return out
		}
		out = append(out, d)
	}
}
