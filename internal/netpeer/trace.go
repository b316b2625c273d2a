package netpeer

import (
	"errors"

	"ripple/internal/overlay"
	"ripple/internal/trace"
	"ripple/internal/wire"
)

// tracer accumulates the spans one traced wire.Call produces at this peer:
// span IDs for the traversals it initiates (derived with the same
// deterministic hash the structural engine uses, so both runtimes name
// identical trees), loss records for unrecoverable links, and the spans its
// reachable children convergecast back. A nil *tracer is the untraced path
// and no-ops everywhere.
type tracer struct {
	call  *wire.Call
	seq   int // per-parent traversal counter, advanced for lost links too
	spans []trace.Span
}

func newTracer(call *wire.Call) *tracer {
	if !call.Traced {
		return nil
	}
	return &tracer{call: call}
}

// child assigns the span ID for the next traversal to peer `to`. Must be
// called exactly once per relevant link attempt, in traversal order.
func (t *tracer) child(to string) uint64 {
	if t == nil {
		return 0
	}
	t.seq++
	return trace.ChildID(t.call.SpanID, to, t.seq)
}

// lost records a traversal abandoned after retry exhaustion.
func (t *tracer) lost(id uint64, peer string, sub overlay.Region, childR, arrive, attempt int, err error) {
	if t == nil {
		return
	}
	outcome := trace.OutcomeDrop
	switch {
	case isTimeout(err):
		outcome = trace.OutcomeTimeout
	case errors.Is(err, errInjectedCrash):
		outcome = trace.OutcomeCrash
	}
	t.spans = append(t.spans, trace.Span{
		ID: id, Parent: t.call.SpanID, Peer: peer, Region: sub,
		Phase: phaseOf(childR), R: childR, Depth: t.call.SpanDepth + 1,
		Arrive: arrive, Attempt: attempt, Outcome: outcome,
	})
}

// lostVia records a failed recovery dispatch: replica `via` was asked to act
// for dead peer `peer` and did not answer either. The span ID is derived from
// the failed primary span by the caller, mirroring the structural engine.
func (t *tracer) lostVia(id uint64, peer, via string, sub overlay.Region, childR, arrive, attempt int, err error) {
	if t == nil {
		return
	}
	outcome := trace.OutcomeDrop
	switch {
	case isTimeout(err):
		outcome = trace.OutcomeTimeout
	case errors.Is(err, errInjectedCrash):
		outcome = trace.OutcomeCrash
	}
	t.spans = append(t.spans, trace.Span{
		ID: id, Parent: t.call.SpanID, Peer: peer, Via: via, Region: sub,
		Phase: phaseOf(childR), R: childR, Depth: t.call.SpanDepth + 1,
		Arrive: arrive, Attempt: attempt, Outcome: outcome,
	})
}

// absorbRecovered takes the convergecast spans of a replica that served a
// dead primary's subtree, marking the child's own span as recovered via that
// replica (the acting peer recorded itself as the primary with OutcomeOK;
// only this caller knows the traversal failed over).
func (t *tracer) absorbRecovered(childID uint64, spans []trace.Span, retries int, via string) {
	if t == nil {
		return
	}
	for i := range spans {
		if spans[i].ID == childID {
			spans[i].Attempt = retries
			spans[i].Outcome = trace.OutcomeRecovered
			spans[i].Via = via
		}
	}
	t.spans = append(t.spans, spans...)
}

// absorb takes a reachable child's convergecast spans, stamping the retry
// count onto the child's own span (the child recorded itself with attempt 0;
// only this caller knows how many attempts the traversal cost).
func (t *tracer) absorb(childID uint64, spans []trace.Span, retries int) {
	if t == nil {
		return
	}
	for i := range spans {
		if spans[i].ID == childID {
			spans[i].Attempt = retries
		}
	}
	t.spans = append(t.spans, spans...)
}

// finish prepends this peer's own span and attaches everything to the reply.
func (t *tracer) finish(reply *wire.Reply, peer string, stateTuples, answerTuples int) {
	if t == nil {
		return
	}
	self := trace.Span{
		ID: t.call.SpanID, Parent: t.call.SpanParent, Peer: peer,
		Region: t.call.Restrict, Phase: phaseOf(t.call.R), R: t.call.R,
		Depth: t.call.SpanDepth, Arrive: t.call.Hops, Outcome: trace.OutcomeOK,
		StateTuples: stateTuples, AnswerTuples: answerTuples,
	}
	reply.Spans = append([]trace.Span{self}, t.spans...)
}

// childContext fills a downstream call's trace-context header.
func (t *tracer) childContext(call *wire.Call, id uint64) {
	if t == nil {
		return
	}
	call.Traced = true
	call.SpanID = id
	call.SpanParent = t.call.SpanID
	call.SpanDepth = t.call.SpanDepth + 1
}

func phaseOf(r int) string {
	if r > 0 {
		return trace.PhaseSlow
	}
	return trace.PhaseFast
}
