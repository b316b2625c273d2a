// Package wire defines the message format RIPPLE peers exchange when they
// run over a real transport (see internal/netpeer): a length-prefixed
// fixed-layout binary envelope (codec.go) carrying the query descriptor, the
// propagated global state, the restriction area and the ripple parameter
// downstream, and local states, answer tuples and cost counters upstream.
//
// Query-type specifics (parameters and state payloads) are opaque byte
// blobs produced by a per-type Codec from the same primitives, so new query
// types plug into the wire protocol the same way they plug into the engine.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/overlay"
	"ripple/internal/trace"
)

// Codec serialises one query type's parameters and states.
type Codec interface {
	// Name identifies the query type on the wire ("topk", "skyline", ...).
	Name() string
	// NewProcessor decodes query parameters into an engine plug-in.
	NewProcessor(params []byte) (core.Processor, error)
	// EncodeState / DecodeState serialise the query type's state payloads.
	EncodeState(s core.State) ([]byte, error)
	DecodeState(b []byte) (core.State, error)
}

// Mutation operations carried by Call.Op. An empty Op marks a query call;
// the constants below select the wire-level data-mutation path (added with
// the result cache of DESIGN.md §15).
const (
	OpInsert = "insert"
	OpDelete = "delete"
	// OpInvalidate is the cache-invalidation broadcast the owner floods after
	// applying a mutation: every peer drops cached results whose footprint
	// covers Tuple.Vec, propagating along links under the same restriction
	// partition a fast-mode query uses, so each peer receives it exactly once.
	OpInvalidate = "invalidate"
)

// Call is the downstream message: "process this query within this area".
type Call struct {
	QueryType string
	Params    []byte
	Global    []byte
	Restrict  overlay.Region
	R         int
	Hops      int // logical arrival time of this message

	// Scope, when non-empty, restricts the query to a sub-region of the
	// domain: traversal is pruned to it and every peer filters its local
	// answer to tuples inside it. Unlike Restrict — which narrows per hop as
	// the traversal partitions the domain — Scope is constant across the
	// whole query and is part of the result's cache identity.
	Scope overlay.Region

	// Op selects the data-mutation path: OpInsert or OpDelete apply Tuple at
	// the peer owning Tuple.Vec (routing greedily via link regions), update
	// the owner's R-1 zone mirrors, and invalidate result caches along the
	// way. Empty means a query call.
	Op    string
	Tuple dataset.Tuple

	// ActAs, when non-empty, asks the receiving peer to process this call on
	// behalf of the named dead peer (a recovery dispatch): it executes the
	// primary's replicated share — zone, tuples and links — so the recovered
	// subtree is exactly the subtree the primary would have executed. The
	// receiver must hold a replica of that peer's share or fail the call.
	ActAs string

	// Trace context. When Traced is set, the receiving peer records a span
	// for itself — identified by SpanID, which the caller derived (the caller
	// owns the traversal, exactly like the structural engine) — and returns
	// its subtree's spans on the Reply, convergecasting the hop tree back to
	// the initiator. SpanParent and SpanDepth place the span in the tree.
	Traced     bool
	SpanID     uint64
	SpanParent uint64
	SpanDepth  int
}

// Reply is the upstream message: the local states of the processed subtree,
// the answer tuples collected for the initiator, and cost counters.
type Reply struct {
	States     [][]byte
	Answers    []dataset.Tuple
	Completion int // logical completion time of the subtree
	QueryMsgs  int
	StateMsgs  int
	TuplesSent int
	Peers      []string // peers reached in the subtree (congestion audit)

	// Error reports a fatal processing failure at the replying peer (panic
	// or malformed call). It distinguishes "this peer crashed" from "this
	// peer holds no qualifying tuples", which an empty reply cannot.
	Error string
	// Partial marks that at least one subtree was lost (dead or timed-out
	// link after retry exhaustion): the answer set may be incomplete.
	Partial bool
	// FailedRegions collects the restriction regions of the lost subtrees;
	// their total volume bounds what the answer can be missing.
	FailedRegions []overlay.Region
	// Failures counts link traversals abandoned after retry exhaustion,
	// Retries the extra attempts spent recovering links, and TimedOut the
	// subset of Failures that hit the per-call deadline rather than an
	// immediate transport error.
	Failures int
	Retries  int
	TimedOut int
	// Recovered counts lost traversals a zone replica served on the dead
	// primary's behalf (they do not mark the reply partial); Failovers the
	// replica dispatches attempted doing so, successful or not.
	Recovered int
	Failovers int

	// Spans carries the subtree's hop-tree spans upstream when the call was
	// traced: the replying peer's own span, spans it recorded for lost
	// children, and everything its reachable children reported.
	Spans []trace.Span

	// CacheHit marks a reply served from the peer's result cache (answers
	// decoded from canonical form; cost counters are then zero by
	// construction — no propagation happened).
	CacheHit bool
	// Plan and PlanR report the serving peer's adaptive-planner decision when
	// the call arrived with r = RAuto and the peer ran a planner: PlanR is the
	// ripple parameter the query actually executed with and Plan its rendered
	// decision ("fast", "ripple(2)", ...). Both are zero-valued for static
	// calls.
	Plan  string
	PlanR int
	// Acks counts the peers that applied a mutation call: the owner plus
	// each mirror that acknowledged the update.
	Acks int
	// Forwarded marks a mutation reply from a replica that routed the call
	// onward (acting as the dead peer) instead of applying it to a mirrored
	// share: the caller must not dispatch the same mutation to the remaining
	// replicas, or the owner would apply it once per replica.
	Forwarded bool
}

// MergeFaults folds a child subtree's fault accounting into r.
func (r *Reply) MergeFaults(child *Reply) {
	r.Partial = r.Partial || child.Partial
	r.FailedRegions = append(r.FailedRegions, child.FailedRegions...)
	r.Failures += child.Failures
	r.Retries += child.Retries
	r.TimedOut += child.TimedOut
	r.Recovered += child.Recovered
	r.Failovers += child.Failovers
}

// RecordLostLink marks one unrecoverable link covering the given region.
func (r *Reply) RecordLostLink(region overlay.Region, timedOut bool) {
	r.Partial = true
	r.Failures++
	if timedOut {
		r.TimedOut++
	}
	r.FailedRegions = append(r.FailedRegions, region)
}

// framePool recycles the frame-assembly and frame-read buffers; frames
// beyond maxPooledFrame are left to the garbage collector so one huge answer
// set cannot pin memory in the pool forever.
var framePool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

const maxPooledFrame = 1 << 20

func putFrameBuf(b *[]byte) {
	if cap(*b) <= maxPooledFrame {
		framePool.Put(b)
	}
}

// writeFrame assembles hdr — whose last four bytes are the body length,
// patched here — and the encoded msg in a pooled buffer and sends them in a
// single Write, so concurrent writers need only serialise the call itself.
func writeFrame(w io.Writer, hdr []byte, msg interface{}) error {
	bp := framePool.Get().(*[]byte)
	defer putFrameBuf(bp)
	buf, err := appendMessage(append((*bp)[:0], hdr...), msg)
	*bp = buf[:0]
	if err != nil {
		return err
	}
	n := len(buf) - len(hdr)
	if n > MaxFrame {
		return fmt.Errorf("wire: message of %d bytes exceeds limit (%d)", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[len(hdr)-4:], uint32(n))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// readBody reads an n-byte frame body through a pooled buffer and decodes it
// into msg. A length beyond MaxFrame returns a *FrameSizeError without
// attempting the allocation.
func readBody(r io.Reader, n uint32, msg interface{}) error {
	if n > MaxFrame {
		return &FrameSizeError{Size: n}
	}
	bp := framePool.Get().(*[]byte)
	defer putFrameBuf(bp)
	body, err := readFrameBody(r, int(n), (*bp)[:0])
	*bp = body[:0]
	if err != nil {
		return fmt.Errorf("wire: read body: %w", err)
	}
	if err := decodeMessage(body, msg); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// WriteMessage frames and writes msg, a *Call or *Reply: a 4-byte length,
// then the body.
func WriteMessage(w io.Writer, msg interface{}) error {
	var hdr [4]byte
	return writeFrame(w, hdr[:], msg)
}

// MaxFrame bounds a single message; queries and states are small, answers
// are bounded by the data a peer holds.
const MaxFrame = 64 << 20

// FrameSizeError reports a length prefix beyond MaxFrame: either a peer
// trying to ship an oversized message or a corrupt/hostile prefix. The
// server replies with it as wire.Reply.Error before dropping the connection
// (the frame body cannot be resynchronised), so the sender learns why.
type FrameSizeError struct {
	Size uint32
}

// Error implements error.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit (%d)", e.Size, MaxFrame)
}

// frameChunk caps how far a frame-body read allocates ahead of the bytes
// actually received. A prefix that lies about its length — corruption, or a
// hostile client — costs at most one chunk beyond what arrived, instead of
// the full claimed size up front.
const frameChunk = 1 << 20

// readFrameBody reads an n-byte frame body into buf (reused from the frame
// pool), growing it incrementally so allocation tracks arrival.
func readFrameBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	if n <= frameChunk || cap(buf) >= n {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		step := n - len(buf)
		if step > frameChunk {
			step = frameChunk
		}
		next := len(buf) + step
		if cap(buf) < next {
			// Doubling keeps total copying linear in n.
			newCap := 2 * cap(buf)
			if newCap < next {
				newCap = next
			}
			if newCap > n {
				newCap = n
			}
			grown := make([]byte, next, newCap)
			copy(grown, buf)
			buf = grown
		} else {
			buf = buf[:next]
		}
		if _, err := io.ReadFull(r, buf[next-step:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// ReadMessage reads one framed message into msg, a *Call or *Reply; every
// field of *msg is overwritten. A length prefix beyond MaxFrame returns a
// *FrameSizeError without attempting the allocation.
func ReadMessage(r io.Reader, msg interface{}) error {
	var size [4]byte
	if _, err := io.ReadFull(r, size[:]); err != nil {
		return err // io.EOF signals a cleanly closed connection
	}
	return ReadMessageBody(r, size, msg)
}

// ReadMessageBody completes ReadMessage after the caller has consumed the
// 4-byte length prefix itself — the netpeer server sniffs the first four
// bytes of a connection to dispatch between the sequential and multiplexed
// protocols (see mux.go) and hands the prefix back here.
func ReadMessageBody(r io.Reader, prefix [4]byte, msg interface{}) error {
	return readBody(r, binary.BigEndian.Uint32(prefix[:]), msg)
}
