package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ripple/benchmark/sut"
)

const (
	// sampleEvery is the oracle's sampling stride: one answer in twenty is
	// kept and verified after the phase, never while the clock runs.
	sampleEvery = 20
	// maxInFlight caps the open phase; a request due while the cap is
	// reached is refused and counted as a failure.
	maxInFlight = 128
	// callTimeout bounds one client call end to end.
	callTimeout = 15 * time.Second
)

// failure classes of one operation.
type outcome uint8

const (
	okOutcome outcome = iota
	errOutcome
	overloadedOutcome
	refusedOutcome // open phase: the in-flight cap was reached
	partialOutcome
	mismatchOutcome // a sampled answer the oracle rejected
)

func (o outcome) String() string {
	return [...]string{"ok", "error", "overloaded", "refused", "partial", "mismatch"}[o]
}

// record is what the loadgen keeps of one operation.
type record struct {
	op         op
	due        time.Time // open phase only
	start, end time.Time
	outcome    outcome
	err        string
	cacheHit   bool
	planR      int
	acks       int
	spans      int // traced queries only
	depth      int
	traced     bool
	sampled    bool
	candidates []sut.Tuple // kept for sampled reads only
}

func (r *record) failed() bool { return r.outcome != okOutcome }

// loadgen drives one fleet from this process over a fixed set of warm
// connections to fixed initiator peers.
type loadgen struct {
	s       *spec
	pool    []poolQuery
	seed    int64
	clients []*sut.Client
	// initiators[i] is the overlay node index client i talks to.
	initiators []int
	// tracedEvery makes every n-th closed-loop read a QueryTraced; 0 is off.
	tracedEvery int
}

func newLoadgen(s *spec, pool []poolQuery, seed int64, fleet *sut.Fleet, conns int) *loadgen {
	g := &loadgen{s: s, pool: pool, seed: seed}
	for i := 0; i < conns; i++ {
		node := i * len(fleet.Addrs) / conns
		g.initiators = append(g.initiators, node)
		g.clients = append(g.clients, sut.Dial(fleet.Addrs[node], s.dims, callTimeout))
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.Close() // connection teardown; the fleet is about to be killed anyway
	}
}

// do performs one operation on a client and fills the record.
func (g *loadgen) do(c *sut.Client, r *record) {
	r.start = time.Now()
	var err error
	if r.op.Kind.isWrite() {
		if r.op.Kind == opInsert {
			r.acks, err = c.Insert(r.op.Tuple)
		} else {
			r.acks, err = c.Delete(r.op.Tuple)
		}
		r.end = time.Now()
		if err == nil && r.acks < 1 {
			r.outcome, r.err = errOutcome, "write acknowledged by no peer"
			return
		}
	} else {
		var rep sut.Reply
		rep, err = c.Do(r.op.query(g.s, g.pool), r.traced)
		r.end = time.Now()
		if err == nil {
			r.cacheHit, r.planR, r.spans, r.depth = rep.CacheHit, rep.PlanR, rep.Spans, rep.Depth
			if rep.Partial {
				r.outcome = partialOutcome
			}
			if r.sampled {
				r.candidates = rep.Candidates
			}
		}
	}
	switch {
	case err == nil:
	case sut.IsOverloaded(err):
		r.outcome, r.err = overloadedOutcome, err.Error()
	default:
		r.outcome, r.err = errOutcome, err.Error()
	}
}

// streamID keeps every generator of a run on its own random sequence.
func streamID(phase, slot int) int { return phase*1000 + slot }

// Phase numbers feed streamID.
const (
	phaseWarm = iota
	phaseClosed
	phaseOpen
	phaseTraced
)

// closed runs the closed loop: each connection keeps depth calls
// outstanding, each slot sending its next operation when the previous one
// completes, until length has passed (or, when maxOps > 0, until each slot
// has sent that many).
func (g *loadgen) closed(phase int, length time.Duration, maxOps int) []record {
	var wg sync.WaitGroup
	deadline := time.Now().Add(length)
	slots := make([][]record, len(g.clients)*g.s.depth)
	for ci, c := range g.clients {
		for d := 0; d < g.s.depth; d++ {
			slot := ci*g.s.depth + d
			wg.Add(1)
			go func(c *sut.Client, slot int) {
				defer wg.Done()
				stream := newOpStream(g.s, g.pool, g.seed, streamID(phase, slot), 1)
				var recs []record
				for n := 0; time.Now().Before(deadline) && (maxOps == 0 || n < maxOps); n++ {
					r := record{op: stream.next(), sampled: n%sampleEvery == 0}
					if g.tracedEvery > 0 && n%g.tracedEvery == 1 && r.op.Kind != opScopedTopK && !r.op.Kind.isWrite() {
						r.traced = true
					}
					g.do(c, &r)
					recs = append(recs, r)
				}
				slots[slot] = recs
			}(c, slot)
		}
	}
	wg.Wait()
	var all []record
	for _, recs := range slots {
		all = append(all, recs...)
	}
	return all
}

// sleepUntil blocks the calling thread until t. time.Sleep is not used: an
// idle Go runtime waits for timers in epoll, whose timeout is in whole
// milliseconds, so it wakes 0.5 to 1 ms late; nanosleep on the dispatcher's
// own thread wakes within about 0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR just means going round again with the time that is left.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// realtime moves the calling thread to the round-robin real-time class, so
// that when a request falls due the dispatcher preempts whichever peer holds
// the CPU instead of waiting out its time slice; the returned function moves
// it back. The thread sleeps between arrivals, so it cannot starve anything.
// Without the privilege the call fails and the thread stays as it was.
func realtime() (restore func()) {
	const schedOther, schedRR = 0, 2
	set := func(policy, prio int) bool {
		param := [1]int32{int32(prio)}
		_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param[0])))
		return errno == 0
	}
	if !set(schedRR, 1) {
		return func() {}
	}
	return func() { set(schedOther, 0) }
}

// openResult is one open-loop step.
type openResult struct {
	records    []record
	backlogEnd int // requests still in flight when the last one fell due
}

// open runs the open loop: requests fall due on the seeded schedule whether
// or not earlier ones have completed. Latency is later taken from the due
// time, so a stall charges every request it delays.
func (g *loadgen) open(stream *opStream, schedule []time.Duration) openResult {
	// The dispatcher keeps an OS thread to itself, so a wake-up does not also
	// wait for the Go scheduler behind the reply handlers.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer realtime()()
	recs := make([]record, len(schedule))
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range schedule {
		due := start.Add(off)
		sleepUntil(due)
		r := &recs[i]
		r.op, r.due, r.sampled = stream.next(), due, i%sampleEvery == 0
		if inFlight.Load() >= maxInFlight {
			now := time.Now()
			r.start, r.end, r.outcome, r.err = now, now, refusedOutcome, "in-flight cap reached"
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(c *sut.Client) {
			defer wg.Done()
			g.do(c, r)
			inFlight.Add(-1)
		}(g.clients[i%len(g.clients)])
	}
	backlog := int(inFlight.Load())
	wg.Wait()
	return openResult{records: recs, backlogEnd: backlog}
}
