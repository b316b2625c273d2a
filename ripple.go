// Package ripple is a from-scratch Go reproduction of
//
//	RIPPLE: A Scalable Framework for Distributed Processing of Rank Queries
//	G. Tsatsanifos, D. Sacharidis, T. Sellis — EDBT 2014
//
// It implements the generic RIPPLE framework (fast / slow / ripple(r) query
// propagation over structured overlays), its instantiations for top-k,
// skyline and k-diversification queries, the MIDAS, CAN, Chord and BATON
// overlay substrates, the DSL / SSP / flooding competitors, the paper's three
// workloads, and a benchmark harness that regenerates every figure of the
// evaluation. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
//
// This root package is the public facade: it re-exports the library's types
// via aliases and offers convenience constructors, so downstream code only
// imports "ripple".
//
// Quick start:
//
//	net := ripple.BuildMIDAS(1024, ripple.MIDASOptions{Dims: 6, Seed: 1})
//	ripple.Load(net, ripple.NBA(0, 1))
//	top, stats := ripple.TopK(net.Peers()[0], ripple.UniformLinear(6), 10, ripple.Fast)
package ripple

import (
	"io"

	"ripple/internal/bench"
	"ripple/internal/cache"
	"ripple/internal/can"
	"ripple/internal/chord"
	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/metrics"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/plan"
	"ripple/internal/rangeq"
	"ripple/internal/sim"
	"ripple/internal/skyline"
	"ripple/internal/storage"
	"ripple/internal/topk"
	"ripple/internal/trace"
	"ripple/internal/wire"
)

// Re-exported core types. The implementation lives under internal/; these
// aliases are the supported surface.
type (
	// Tuple is a data item: an ID plus its position in [0,1)^d.
	Tuple = dataset.Tuple
	// Point is a location in d-dimensional space.
	Point = geom.Point
	// Rect is an axis-parallel half-open box.
	Rect = geom.Rect
	// Stats is the per-query cost record (latency, congestion, messages).
	Stats = sim.Stats
	// Aggregate summarises stats over a query batch.
	Aggregate = sim.Aggregate
	// Node is a peer as seen by the RIPPLE engine.
	Node = overlay.Node
	// Network is a structured overlay hosting tuples.
	Network = overlay.Network
	// Region is a union of boxes, the unit of RIPPLE's search delegation.
	Region = overlay.Region
	// Processor is the plug-in interface of the RIPPLE framework — implement
	// it to run a new query type through fast/slow/ripple propagation.
	Processor = core.Processor

	// MIDAS is the k-d-tree DHT the paper showcases RIPPLE on.
	MIDAS = midas.Network
	// MIDASOptions configures a MIDAS network.
	MIDASOptions = midas.Options
	// CAN is the d-dimensional zone DHT used by the baselines.
	CAN = can.Network
	// CANOptions configures a CAN network.
	CANOptions = can.Options
	// Chord is a 1-d ring DHT demonstrating RIPPLE's overlay-genericity.
	Chord = chord.Network

	// Scorer is a top-k scoring function with an upper bound over boxes.
	Scorer = topk.Scorer
	// Linear is the weighted-sum scorer (monotone, hence unimodal).
	Linear = topk.Linear
	// Peak is a non-monotone unimodal scorer with a configurable maximum.
	Peak = topk.Peak

	// DiversifyQuery carries the k-diversification parameters (q, λ, metrics).
	DiversifyQuery = diversify.Query
	// DiversifyResult is the outcome of a greedy k-diversification query.
	DiversifyResult = diversify.GreedyResult

	// BenchConfig parameterises the experiment harness (Table 1).
	BenchConfig = bench.Config
	// BenchResult is one regenerated figure.
	BenchResult = bench.Result
)

// Fast is the ripple parameter of the latency-optimal extreme (Algorithm 1).
const Fast = 0

// Slow is a ripple parameter large enough that processing never leaves the
// communication-optimal slow mode (Algorithm 2) on any realistic overlay.
const Slow = 1 << 20

// Dataset generators (paper §7.1; see DESIGN.md §4 for the substitutions).
var (
	// NBA synthesises the 22,000-tuple player-statistics workload.
	NBA = dataset.NBA
	// MIRFlickr synthesises the image edge-histogram workload.
	MIRFlickr = dataset.MIRFlickr
	// Synth generates the paper's clustered synthetic data.
	Synth = dataset.Synth
	// Uniform generates uniform tuples (testing workload).
	Uniform = dataset.Uniform
)

// SynthConfig parameterises Synth.
type SynthConfig = dataset.SynthConfig

// BuildMIDAS grows a MIDAS overlay of the given size via random joins.
func BuildMIDAS(size int, opts MIDASOptions) *MIDAS { return midas.Build(size, opts) }

// BuildMIDASWithData loads the tuples first and then grows the overlay, so
// zones split at data medians and granularity follows data density (MIDAS's
// load-adaptive behaviour). Prefer this over BuildMIDAS+Load when the data
// is known up front.
func BuildMIDASWithData(size int, opts MIDASOptions, ts []Tuple) *MIDAS {
	return midas.BuildWithData(size, opts, ts)
}

// BuildCAN grows a CAN overlay of the given size.
func BuildCAN(size int, opts CANOptions) *CAN { return can.Build(size, opts) }

// BuildChord grows a Chord ring of the given size.
func BuildChord(size int, seed int64) *Chord { return chord.Build(size, seed) }

// Load inserts every tuple into the network.
func Load(n Network, ts []Tuple) { overlay.Load(n, ts) }

// UniformLinear returns a Linear scorer with d equal weights.
func UniformLinear(d int) Linear { return topk.UniformLinear(d) }

// TopK answers a top-k query from the given peer with ripple parameter r
// (Fast, Slow, or any intermediate value). The result is exact.
func TopK(initiator Node, f Scorer, k, r int) ([]Tuple, Stats) {
	return topk.Run(initiator, f, k, r)
}

// TopKBrute is the centralized reference answer.
func TopKBrute(ts []Tuple, f Scorer, k int) []Tuple { return topk.Brute(ts, f, k) }

// Skyline answers a skyline query (lower values better) from the given peer
// with ripple parameter r. The result is exact.
func Skyline(initiator Node, r int) ([]Tuple, Stats) { return skyline.Run(initiator, r) }

// SkylineBrute computes the skyline of a tuple slice centrally.
func SkylineBrute(ts []Tuple) []Tuple { return skyline.Compute(ts) }

// ConstrainedSkyline answers the skyline of the tuples inside the given box
// (the constrained variant the DSL competitor is originally defined for).
func ConstrainedSkyline(initiator Node, constraint Rect, r int) ([]Tuple, Stats) {
	return skyline.RunConstrained(initiator, constraint, r)
}

// ConstrainedSkylineBrute is the centralized constrained-skyline oracle.
func ConstrainedSkylineBrute(ts []Tuple, constraint Rect) []Tuple {
	return skyline.ComputeConstrained(ts, constraint)
}

// NewDiversifyQuery builds a k-diversification query with the paper's
// defaults (L1 relevance and diversity metrics).
func NewDiversifyQuery(q Point, lambda float64) DiversifyQuery {
	return diversify.NewQuery(q, lambda)
}

// Diversify answers a k-diversification query greedily (Algorithms 22-23),
// resolving every single-tuple sub-query through RIPPLE from the given peer
// with ripple parameter r. maxIters bounds the improvement passes (0 uses
// the paper's MAX_ITERS).
func Diversify(initiator Node, q DiversifyQuery, k, r, maxIters int) DiversifyResult {
	return diversify.Greedy(q, k, diversify.NewRippleSolver(initiator, q, r), maxIters)
}

// Run executes a custom Processor through the RIPPLE engine — the extension
// point for new rank query types.
func Run(initiator Node, p Processor, r int) ([]Tuple, Stats) {
	res := core.Run(initiator, p, r)
	return res.Answers, res.Stats
}

// Query observability: hop-tree tracing and the metrics registry.
type (
	// Result is the full outcome of an engine query: answers, cost stats,
	// lost regions, and — when traced — the reconstructed hop tree.
	Result = core.Result
	// TraceTree is a query's reconstructed propagation tree.
	TraceTree = trace.Tree
	// TraceNode is one peer visit in a hop tree.
	TraceNode = trace.Node
	// TraceSpan is one link-traversal record.
	TraceSpan = trace.Span
	// MetricsRegistry is the dependency-free counter/histogram registry with
	// Prometheus text exposition and pprof mounting (see internal/metrics).
	MetricsRegistry = metrics.Registry
)

// RunDetailed executes a Processor and returns the full Result, including
// the partial-answer accounting.
func RunDetailed(initiator Node, p Processor, r int) *Result {
	return core.Run(initiator, p, r)
}

// RunTraced is RunDetailed with hop-tree tracing: every link traversal is
// recorded as a span and Result.Trace holds the recursion tree.
func RunTraced(initiator Node, p Processor, r int) *Result {
	return core.RunOpts(initiator, p, r, core.Options{Trace: true})
}

// NewMetrics returns a fresh metrics registry.
func NewMetrics() *MetricsRegistry { return metrics.New() }

// TopKSelect picks the k best tuples from a collected answer set.
func TopKSelect(ts []Tuple, f Scorer, k int) []Tuple { return topk.Select(ts, f, k) }

// Additional query types and runtime surfaces.
type (
	// RangeShape is a range-query search area (box or ball).
	RangeShape = rangeq.Shape
	// RangeBox is an axis-parallel range query area.
	RangeBox = rangeq.Box
	// RangeBall is a distance-ball range query area.
	RangeBall = rangeq.Ball
	// Nearest turns k-nearest-neighbour search into a top-k rank query.
	Nearest = topk.Nearest
	// Metric is a distance function with point-to-box bounds.
	Metric = geom.Metric

	// TopKProcessor, SkylineProcessor and DiversifyProcessor are the paper's
	// three instantiations as engine plug-ins, exposed for use with Run or
	// custom drivers.
	TopKProcessor = topk.Processor
	// SkylineProcessor is the skyline plug-in (§5).
	SkylineProcessor = skyline.Processor
	// DiversifyProcessor is the single-tuple diversification plug-in (§6.2).
	DiversifyProcessor = diversify.Processor
	// KNNProcessor is the k-nearest-neighbour plug-in, stated directly in
	// distance space over the storage engine (the exact dual of top-k with
	// the Nearest scorer).
	KNNProcessor = knn.Processor
)

// L1 and L2 are the Minkowski metrics used throughout the paper.
var (
	L1 = geom.L1
	L2 = geom.L2
)

// Range answers a range query (explicit search area) from the given peer.
func Range(initiator Node, area RangeShape) ([]Tuple, Stats) {
	return rangeq.Run(initiator, area)
}

// KNN answers a k-nearest-neighbour query under the given metric with the
// dedicated kNN processor: local steps are best-first descents of the peer's
// storage engine, and answers are byte-identical to running a top-k rank
// query with the Nearest distance scorer (the two are exact duals). A nil
// metric means Euclidean.
func KNN(initiator Node, center Point, k int, m Metric, r int) ([]Tuple, Stats) {
	return knn.Run(initiator, center, k, m, r)
}

// KNNBrute is the centralized kNN reference answer.
func KNNBrute(ts []Tuple, center Point, k int, m Metric) []Tuple {
	return knn.Brute(ts, center, k, m)
}

// KNNSelect merges convergecast answers into the final k nearest tuples.
func KNNSelect(answers []Tuple, center Point, k int, m Metric) []Tuple {
	return knn.Select(answers, center, k, m)
}

// ReadCSV / WriteCSV / NormalizeTuples load and store tuples as CSV (id
// column plus coordinates), with min-max normalisation and optional
// per-dimension inversion for raw data.
func ReadCSV(r io.Reader) ([]Tuple, error)      { return dataset.ReadCSV(r) }
func WriteCSV(w io.Writer, ts []Tuple) error    { return dataset.WriteCSV(w, ts) }
func NormalizeTuples(ts []Tuple, invert []bool) { dataset.Normalize(ts, invert) }

// ReadCSVRaw loads a CSV of raw attribute values, optionally min-max
// normalising into [0,1) with per-dimension inversion (see NormalizeTuples).
// Without normalisation the coordinates must already be in [0,1).
func ReadCSVRaw(r io.Reader, normalize bool, invert []bool) ([]Tuple, error) {
	if !normalize {
		return dataset.ReadCSV(r)
	}
	ts, err := dataset.ReadRawCSV(r)
	if err != nil {
		return nil, err
	}
	dataset.Normalize(ts, invert)
	return ts, nil
}

// Networked deployment: peers as TCP servers speaking the wire protocol.
type (
	// PeerServer is one RIPPLE peer process listening on TCP.
	PeerServer = netpeer.Server
	// PeerConfig describes a peer's share of the overlay.
	PeerConfig = netpeer.Config
	// PeerLink is a neighbour address plus its delegated region.
	PeerLink = netpeer.LinkSpec
	// QueryCodec serialises one query type's parameters and states.
	QueryCodec = wire.Codec
	// TopKWire and SkylineWire are the built-in wire codecs.
	TopKWire = topk.WireCodec
	// SkylineWire serialises skyline queries.
	SkylineWire = skyline.WireCodec
	// KNNWire serialises k-nearest-neighbour queries.
	KNNWire = knn.WireCodec
)

// Peer-local storage engine (DESIGN.md §14): every peer serves its zone share
// through the Store interface, with a flat-scan baseline and an R-tree.
type (
	// Store is the peer-local storage engine interface.
	Store = storage.Store
	// StorageKind selects a storage engine by name.
	StorageKind = storage.Kind
)

// Storage engine selections for overlay, engine and server options.
const (
	// StorageAuto defers to the node's own engine (options zero value).
	StorageAuto = storage.KindAuto
	// StorageScan selects the flat-slice reference baseline.
	StorageScan = storage.KindScan
	// StorageRTree selects the R-tree engine.
	StorageRTree = storage.KindRTree
)

// ParseStorageKind validates a -storage flag value ("scan" or "rtree").
func ParseStorageKind(s string) (StorageKind, error) { return storage.ParseKind(s) }

// StoreOf returns the storage engine serving a node's tuples: the node's own
// store when it provides one, a flat scan view otherwise.
func StoreOf(w Node) Store { return overlay.StoreOf(w) }

// DeployTCP starts one TCP server per peer of an overlay snapshot on
// loopback addresses and wires the neighbour tables. Close every returned
// server when done.
func DeployTCP(net Network, codecs ...QueryCodec) ([]*PeerServer, map[string]string, error) {
	return netpeer.Deploy(net, codecs...)
}

// QueryTCP runs a query against a deployment starting at the peer server
// bound to addr.
func QueryTCP(addr, queryType string, params []byte, dims, r int) ([]Tuple, Stats, error) {
	return netpeer.Query(addr, queryType, params, dims, r)
}

// Hot-region result cache and wire-level data mutation (DESIGN.md §15).
type (
	// ResultCache is the bounded, sharded query-result cache with z-order
	// cell invalidation: cached answers are dropped exactly when a mutation
	// lands inside a region their query covered (plus a TTL backstop).
	ResultCache = cache.Cache
	// ResultCacheOptions configures a ResultCache (size budget, TTL, shards).
	ResultCacheOptions = cache.Options
	// RunOptions tunes a single engine run: tracing, storage engine override,
	// query scope, and the result cache to consult.
	RunOptions = core.Options
	// PeerOptions tunes a TCP peer server (fault tolerance, storage, cache).
	PeerOptions = netpeer.Options
)

// NewResultCache builds a result cache; a zero MaxBytes returns nil, which
// every cache operation treats as "caching disabled".
func NewResultCache(opts ResultCacheOptions) *ResultCache { return cache.New(opts) }

// CacheKey derives the canonical cache identity of a query: its type, encoded
// parameters, dimensionality, ripple radius r and scope. r is part of the
// identity because Answers are the propagation's candidate set, which the
// radius shapes; only the initiating peer is excluded, which is safe because
// caches are peer-local.
func CacheKey(queryType string, params []byte, dims, r int, scope Region) []byte {
	return cache.Key(queryType, params, dims, r, scope)
}

// Adaptive query planning (DESIGN.md §16): a Planner picks the execution mode
// — fast, slow, or ripple(r) — per query from a self-tuning cost model, and
// every completed run (planned or static) feeds its observed cost back in.
type (
	// Planner is the per-process mode/r selector; safe for concurrent use.
	Planner = plan.Planner
	// PlannerOptions tunes the cost model (latency/message weights, EWMA
	// smoothing, exploration cadence, candidate arms).
	PlannerOptions = plan.Options
	// PlanDecision is one resolved choice: the mode, the concrete r, the
	// estimated cost, and whether the pick was an exploration.
	PlanDecision = plan.Decision
	// PlanQuery describes a query to the planner (family, k, dimensionality,
	// overlay shape, local storage statistics).
	PlanQuery = plan.Query
)

// RAuto is the ripple-parameter sentinel that asks the runtime's Planner to
// choose the mode: pass it as r wherever a static value would go. Without a
// configured planner it degrades to Fast.
const RAuto = plan.RAuto

// NewPlanner builds an adaptive planner; the zero PlannerOptions selects the
// defaults (see plan.Options).
func NewPlanner(opts PlannerOptions) *Planner { return plan.New(opts) }

// DefaultPlanner is NewPlanner with default options.
func DefaultPlanner() *Planner { return plan.Default() }

// RunWithOptions executes a Processor with explicit run options (scope,
// cache, tracing, storage override).
func RunWithOptions(initiator Node, p Processor, r int, opts RunOptions) *Result {
	return core.RunOpts(initiator, p, r, opts)
}

// Insert adds a tuple to a simulated overlay at the owner of its point.
func Insert(n Network, t Tuple) { n.Insert(t) }

// Delete removes the tuple with t.ID from the peer owning t.Vec, reporting
// whether it was found. Overlays without delete support report false.
func Delete(n Network, t Tuple) bool {
	if d, ok := n.(overlay.Deleter); ok {
		return d.Delete(t)
	}
	return false
}

// InsertTCP applies an insert mutation through the deployment peer at addr:
// routed to the owner, applied, mirrored, and result caches invalidated
// before the call returns. It reports how many peers applied the op.
func InsertTCP(addr string, t Tuple) (int, error) { return netpeer.Insert(addr, t, 0) }

// DeleteTCP applies a delete mutation through the deployment peer at addr.
func DeleteTCP(addr string, t Tuple) (int, error) { return netpeer.Delete(addr, t, 0) }

// Worst-case latency formulas of §3.2 (Lemmas 1-3) for RIPPLE over MIDAS.
var (
	// FastWorstLatency is L_f(δ) = ∆−δ.
	FastWorstLatency = core.FastWorstLatency
	// SlowWorstLatency is L_s(δ) = 2^(∆−δ)−1.
	SlowWorstLatency = core.SlowWorstLatency
	// RippleWorstLatency evaluates the Lemma 3 recurrence exactly.
	RippleWorstLatency = core.RippleWorstLatency
)
