// Package trace records per-query hop-tree spans: one span per link
// traversal of a RIPPLE query, carrying the parent span, the peer reached,
// the restriction region delegated over the link, the mode phase (slow while
// r > 0, fast once r reaches 0), the logical arrival clock, retry attempts,
// the fault outcome, and the state/answer tuple counts the peer contributed.
// The spans convergecast back to the initiator, where Build reconstructs the
// full recursion tree of Algorithm 3 — the paper's Figure-3 structure —
// including the subtrees lost to failures.
//
// Span identities are hierarchical hashes: a child's ID is a pure function of
// (parent ID, target peer, traversal sequence number). Because both runtimes
// — the structural engine (internal/core) and the TCP peers
// (internal/netpeer) — attempt traversals in the same deterministic order,
// the same query yields byte-identical span identities in both, which is what
// lets cross-runtime equivalence tests compare hop trees structurally.
//
// Tracing is opt-in per query and free when off: a nil *Recorder is a valid
// no-op recorder, every method is nil-safe, and the disabled path performs no
// allocations (guarded by TestDisabledRecorderZeroAlloc).
package trace

import (
	"hash/fnv"

	"ripple/internal/overlay"
)

// Phase names the template phase a span executed under.
const (
	PhaseSlow = "slow" // r > 0: sequential iteration, states folded per link
	PhaseFast = "fast" // r = 0: parallel fan-out, states convergecast
)

// Outcome of the link traversal that opened a span.
const (
	OutcomeOK      = "ok"      // delivered, subtree executed
	OutcomeDrop    = "drop"    // message lost before reaching the peer
	OutcomeCrash   = "crash"   // peer reached but died before replying
	OutcomeDelay   = "delay"   // delivered over a slow link
	OutcomeTimeout = "timeout" // TCP only: retries exhausted on deadlines
	OutcomeLost    = "lost"    // TCP only: retries exhausted, transport error

	// OutcomeRecovered marks a traversal whose primary target was lost but
	// whose subtree a zone replica executed on the primary's behalf (Span.Via
	// names the replica). The subtree reported back: it is not Lost.
	OutcomeRecovered = "recovered"
)

// Lost reports whether an outcome means the span's subtree never reported
// back (its answers are missing from the result).
func Lost(outcome string) bool {
	switch outcome {
	case OutcomeDrop, OutcomeCrash, OutcomeTimeout, OutcomeLost:
		return true
	}
	return false
}

// RootID is the span ID of every query's initiator span.
const RootID uint64 = 1

// Span is one link traversal of a query's propagation tree. The initiator
// owns the root span (Parent 0, ID RootID).
type Span struct {
	ID     uint64
	Parent uint64 // 0 for the root span
	// Peer is the peer the traversal targeted (and that processed the
	// delivery, unless the outcome lost it).
	Peer string
	// Via is the replica that physically executed (or was asked to execute)
	// this span when it was a recovery dispatch on behalf of Peer; empty for
	// ordinary traversals.
	Via string
	// Region is the restriction area delegated over the link — the part of
	// the domain this subtree is responsible for.
	Region overlay.Region
	// Phase is the template phase at this peer (PhaseSlow / PhaseFast).
	Phase string
	// R is the remaining ripple parameter at this peer.
	R int
	// Depth is the number of links between the initiator and this peer.
	Depth int
	// Arrive is the logical hop clock when the delivery arrived (TCP clocks
	// omit the injected-delay hop charges the structural engine adds).
	Arrive int
	// Attempt counts extra delivery attempts (retries) spent on the link
	// before this outcome; 0 means the first try decided it.
	Attempt int
	// Outcome is the traversal's fate (Outcome* constants).
	Outcome string
	// StateTuples counts the tuples in the peer's own final local state as
	// shipped upstream; AnswerTuples the tuples of its local answer.
	StateTuples  int
	AnswerTuples int
	// Plan annotates the root span with the planner's decision ("fast",
	// "ripple(2)", "slow", "+explore" suffixed for exploration picks) when
	// the run's ripple parameter was chosen adaptively; empty for static
	// runs. Canonical() excludes it, so a planned run's tree stays
	// byte-identical to the equivalent static run's.
	Plan string
}

// ChildID derives the span ID of the seq-th traversal attempted by the span
// parent towards the given peer. It is the only span-identity source, keeping
// IDs reproducible across runtimes: FNV-1a over (parent, peer, seq) with a
// splitmix64 finalizer, pinned away from the reserved IDs 0 and RootID.
func ChildID(parent uint64, peer string, seq int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	putUint64(&b, parent)
	h.Write(b[:])
	h.Write([]byte(peer))
	putUint64(&b, uint64(seq))
	h.Write(b[:])
	id := mix64(h.Sum64())
	if id <= RootID {
		id = ^id // deterministic nudge out of the reserved {0, RootID} range
	}
	return id
}

func putUint64(b *[8]byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// mix64 is the splitmix64 finalizer (bijective avalanche).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Recorder collects the spans of one query. It is not safe for concurrent
// use (the structural engine records from one goroutine; TCP peers build
// their spans on the wire instead) and it is nil-safe: a nil *Recorder drops
// everything without allocating, so the engine threads it through
// unconditionally and tracing costs nothing when disabled.
type Recorder struct {
	spans []Span
	idx   map[uint64]int
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{idx: make(map[uint64]int)} }

// Enabled reports whether spans are being kept.
func (r *Recorder) Enabled() bool { return r != nil }

// Record stores a span. Recording the same span ID twice keeps the first
// occurrence (a peer receiving several restriction fragments opens one span
// per fragment, but fragments get distinct IDs by construction).
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if _, dup := r.idx[s.ID]; !dup {
		r.idx[s.ID] = len(r.spans)
		r.spans = append(r.spans, s)
	}
}

// SetCounts sets the state/answer tuple counts of the span with the given ID
// once the peer's final local state is known.
func (r *Recorder) SetCounts(id uint64, stateTuples, answerTuples int) {
	if r == nil {
		return
	}
	if i, ok := r.idx[id]; ok {
		r.spans[i].StateTuples = stateTuples
		r.spans[i].AnswerTuples = answerTuples
	}
}

// AddAnswer adds answer tuples to a span (answers are emitted once per peer,
// on the first restriction fragment processed).
func (r *Recorder) AddAnswer(id uint64, tuples int) {
	if r == nil {
		return
	}
	if i, ok := r.idx[id]; ok {
		r.spans[i].AnswerTuples += tuples
	}
}

// SetStateTuples sets only the state-tuple count of a span.
func (r *Recorder) SetStateTuples(id uint64, tuples int) {
	if r == nil {
		return
	}
	if i, ok := r.idx[id]; ok {
		r.spans[i].StateTuples = tuples
	}
}

// Spans returns a copy of the recorded spans in record order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}
