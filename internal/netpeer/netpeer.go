// Package netpeer runs RIPPLE peers as real network servers: each peer
// listens on a TCP address, holds its zone, tuples, and links (neighbour
// addresses with their regions), and processes wire.Call messages by
// executing its slice of Algorithm 3 — forwarding sub-calls to neighbour
// servers over TCP and aggregating their replies. It turns the simulated
// library into a deployable system: the exact protocol the in-process
// engines model, over actual sockets.
//
// The RPC realisation folds the paper's three upstream flows (state to the
// parent, answers to the initiator, fast-mode convergecast) into the reply
// chain; contents and cost accounting are identical, and hop clocks carried
// on the messages reproduce the engine's latency model.
//
// Unlike the structural engine, real links fail. Every outgoing RPC runs
// under dial/read/write deadlines and a bounded retry policy (exponential
// backoff with jitter); a link that stays unrecoverable does not fail the
// query — the caller records the lost restriction region and marks the reply
// partial, so the initiator learns exactly which part of the domain its
// answer may be missing instead of silently receiving a corrupted result.
package netpeer

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/overlay"
	"ripple/internal/plan"
	"ripple/internal/sim"
	"ripple/internal/storage"
	"ripple/internal/trace"
	"ripple/internal/wire"
)

// LinkSpec is a neighbour as seen on the network: its address and the region
// of the domain this peer delegates to it. ID carries the neighbour's stable
// peer identity; it keys fault-injection decisions and failure logs (older
// configs without it fall back to the address).
type LinkSpec struct {
	ID     string
	Addr   string
	Region overlay.Region

	// Replicas lists the peers holding a replica of this neighbour's share,
	// in failover order: when the neighbour stays unreachable after retries,
	// the caller re-dispatches the sub-call to them (wire.Call.ActAs) before
	// declaring the region lost. Empty when replication is off.
	Replicas []ReplicaAddr
}

// ReplicaAddr names one replica holder of a peer's share.
type ReplicaAddr struct {
	ID   string
	Addr string
}

// key returns the link's stable identity for logging and fault decisions.
func (l LinkSpec) key() string {
	if l.ID != "" {
		return l.ID
	}
	return l.Addr
}

// Config describes one peer's share of the overlay.
type Config struct {
	ID     string
	Zone   overlay.Region
	Tuples []dataset.Tuple
	Links  []LinkSpec

	// Replicas are the shares of other peers this peer mirrors (zone
	// replication, DESIGN.md §13). A wire.Call with ActAs naming one of them
	// is served from that share — the peer acts as the dead primary.
	Replicas []ReplicaShare

	// Mirrors are the peers holding a replica of THIS peer's share. After
	// applying a mutation it owns, the peer fans the mutation out to them so
	// failover reads never serve pre-mutation data. Empty when replication is
	// off.
	Mirrors []ReplicaAddr
}

// ReplicaShare is a mirrored copy of another peer's share: everything needed
// to execute that peer's slice of Algorithm 3 on its behalf.
type ReplicaShare struct {
	ID     string
	Zone   overlay.Region
	Tuples []dataset.Tuple
	Links  []LinkSpec
}

// Server is a RIPPLE peer process.
type Server struct {
	mu        sync.RWMutex
	cfg       Config
	store     storage.Store            // the peer's own share behind Options.Storage
	repStores map[string]storage.Store // one per mirrored replica share
	cache     *cache.Cache             // result cache; nil when Options.CacheSize is zero
	codecs    map[string]wire.Codec
	opts      Options
	ins       instruments
	pool      *connPool // nil when Options.DisableConnPool
	mux       *muxTable // nil when Options.DisableMux
	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	once      sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer creates a peer server supporting the given query codecs, with
// default fault-tolerance options.
func NewServer(cfg Config, codecs ...wire.Codec) *Server {
	return NewServerOpts(cfg, Options{}, codecs...)
}

// NewServerOpts creates a peer server with explicit fault-tolerance options
// (zero fields fall back to the defaults).
func NewServerOpts(cfg Config, opts Options, codecs ...wire.Codec) *Server {
	m := make(map[string]wire.Codec, len(codecs))
	for _, c := range codecs {
		m[c.Name()] = c
	}
	s := &Server{
		cfg:    cfg,
		codecs: m,
		opts:   opts.withDefaults(),
		ins:    newInstruments(opts.Metrics),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.store = storage.New(s.opts.Storage, cfg.Tuples)
	s.ins.setStorage(s.store.Stats())
	s.setReplicaStores(cfg.Replicas)
	s.cache = cache.New(cache.Options{
		MaxBytes: s.opts.CacheSize,
		TTL:      s.opts.CacheTTL,
		Metrics:  s.opts.Metrics,
	})
	if !s.opts.DisableConnPool {
		s.pool = newConnPool(s.opts.MaxIdleConnsPerPeer, s.opts.IdleConnTimeout, s.ins.evictions)
	}
	if !s.opts.DisableMux {
		s.mux = newMuxTable()
	}
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("netpeer %s: %w", s.cfg.ID, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// SetLinks installs the peer's neighbour table (done after all servers of a
// deployment have bound their addresses).
func (s *Server) SetLinks(links []LinkSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Links = links
}

// SetReplicas installs the mirrored shares this peer serves recovery
// dispatches from (done after all servers of a deployment have bound their
// addresses, like SetLinks). Each share gets its own store so a recovery
// dispatch runs with the same engine the dead primary would have used.
func (s *Server) SetReplicas(shares []ReplicaShare) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Replicas = shares
	s.setReplicaStores(shares)
}

// SetMirrors installs the addresses of the peers mirroring this peer's own
// share, the targets of mutation fan-out (done after all servers of a
// deployment have bound their addresses, like SetLinks).
func (s *Server) SetMirrors(mirrors []ReplicaAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Mirrors = mirrors
}

// StorageStats reports the live statistics of the peer's primary-share store:
// the engine kind, tuple count, and index shape. The same numbers back the
// ripple_storage_* gauges and the planner's local-work term.
func (s *Server) StorageStats() storage.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.Stats()
}

// setReplicaStores rebuilds the per-share store table; callers hold s.mu (or
// are the constructor, before the server is shared).
func (s *Server) setReplicaStores(shares []ReplicaShare) {
	s.repStores = make(map[string]storage.Store, len(shares))
	for _, sh := range shares {
		s.repStores[sh.ID] = storage.New(s.opts.Storage, sh.Tuples)
	}
}

// Close stops serving: the listener is closed, every open connection is torn
// down, and Close blocks until all serving goroutines have exited. Safe to
// call more than once.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		close(s.closed)
		err = s.ln.Close()
		if s.mux != nil {
			s.mux.close()
		}
		if s.pool != nil {
			s.pool.close()
		}
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return err
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// acceptBackoff bounds the sleep after consecutive transient Accept
// failures: it starts small so one blip costs little, doubles so sustained
// fd exhaustion doesn't spin the loop, and caps so recovery is noticed
// within a fraction of a second.
const (
	acceptBackoffBase = 1 * time.Millisecond
	acceptBackoffMax  = 250 * time.Millisecond
)

// sleep pauses for d unless the server is closed first, reporting whether
// the full duration elapsed. Every wait inside the server goes through this
// so Close is never delayed by a backoff or an injected fault: a plain
// time.Sleep would hold the WaitGroup for the whole duration (goroleak).
func (s *Server) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.closed:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffBase
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				// Transient accept failure (e.g. fd exhaustion): capped
				// exponential backoff instead of spinning.
				if !s.sleep(backoff) {
					return
				}
				if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				continue
			}
		}
		backoff = acceptBackoffBase
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// track registers a live connection so Close can tear it down; it refuses
// connections that race with shutdown.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	conn.Close()
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// countingReader tracks whether any bytes of the current message arrived, to
// tell an idle connection apart from one stalled mid-frame.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// serveConn handles one client connection. The first four bytes decide the
// protocol: the mux magic opens a multiplexed session (serveMux), anything
// else is the length prefix of a legacy sequential frame (the magic decodes
// as an over-limit length, so the two can never collide). The sniff runs
// under the same idle semantics as every later read: a connection idle
// before its first frame is re-armed, one stalled mid-prefix is dropped.
func (s *Server) serveConn(conn net.Conn) {
	cr := &countingReader{r: conn}
	var prefix [4]byte
	for {
		cr.n = 0
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			return // dead socket; an unarmed deadline would let the goroutine leak
		}
		if _, err := io.ReadFull(cr, prefix[:]); err != nil {
			if isTimeout(err) && cr.n == 0 {
				select {
				case <-s.closed:
					return
				default:
					continue // idle client: re-arm the deadline
				}
			}
			return // EOF, broken peer, or mid-frame stall
		}
		break
	}
	if wire.IsMuxPrefix(prefix) {
		s.serveMux(conn, cr)
		return
	}
	s.serveSequential(conn, cr, prefix, true)
}

// serveSequential runs the legacy one-call-at-a-time loop: read a call,
// process it, write the reply, repeat. havePrefix marks that the sniff
// already consumed the first frame's length prefix (still under the sniff's
// read deadline); it is false when a mux-capable client negotiated down to
// this protocol and the next frame starts clean. Each message is read under
// a deadline: a connection merely idle between messages is re-armed (unless
// the server is shutting down), while one that stalls in the middle of a
// frame — a hung or byte-dripping client — is dropped, so serving goroutines
// cannot leak past Close. An oversized length prefix is answered with the
// typed frame-size error before the connection is dropped (the frame body
// cannot be resynchronised).
func (s *Server) serveSequential(conn net.Conn, cr *countingReader, prefix [4]byte, havePrefix bool) {
	for {
		var call wire.Call
		var err error
		if havePrefix {
			havePrefix = false
			err = wire.ReadMessageBody(cr, prefix, &call)
		} else {
			cr.n = 0
			if derr := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); derr != nil {
				return
			}
			err = wire.ReadMessage(cr, &call)
		}
		if err != nil {
			if isTimeout(err) && cr.n == 0 {
				select {
				case <-s.closed:
					return
				default:
					continue // idle client: re-arm the deadline
				}
			}
			var fse *wire.FrameSizeError
			if errors.As(err, &fse) {
				s.writeReply(conn, &wire.Reply{Error: fse.Error()})
			}
			return // EOF, broken peer, oversized frame, or mid-frame stall
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return
		}
		if !s.writeReply(conn, s.safeProcess(&call)) {
			return
		}
	}
}

// writeReply sends one sequential-protocol reply under the write deadline,
// reporting whether the connection is still usable.
func (s *Server) writeReply(conn net.Conn, reply *wire.Reply) bool {
	if err := conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)); err != nil {
		return false
	}
	if err := wire.WriteMessage(conn, reply); err != nil {
		return false
	}
	return conn.SetWriteDeadline(time.Time{}) == nil
}

// safeProcess shields the server from malformed calls (wrong dimensionality,
// bad payloads) and processor panics. Failures are logged server-side and
// reported to the caller as wire.Reply.Error, so a crashed peer is
// distinguishable from one that simply holds no qualifying tuples.
func (s *Server) safeProcess(call *wire.Call) (reply *wire.Reply) {
	defer func() {
		if r := recover(); r != nil {
			s.opts.Logf("netpeer %s: panic processing %q call: %v", s.cfg.ID, call.QueryType, r)
			reply = &wire.Reply{Error: fmt.Sprintf("peer %s: panic: %v", s.cfg.ID, r)}
		}
	}()
	reply, err := s.process(call)
	if err != nil {
		s.opts.Logf("netpeer %s: failed %q call: %v", s.cfg.ID, call.QueryType, err)
		return &wire.Reply{Error: err.Error()}
	}
	return reply
}

// node adapts the peer's local share to the engine's Node interface. One
// node instance lives for exactly one call.
type node struct {
	cfg *Config
	st  storage.Store
}

func (n *node) ID() string              { return n.cfg.ID }
func (n *node) Zone() overlay.Region    { return n.cfg.Zone }
func (n *node) Links() []overlay.Link   { return nil } // links live in LinkSpec form
func (n *node) Tuples() []dataset.Tuple { return n.cfg.Tuples }

// Store implements storage.Provider: the share's store, built once per server
// (or per installed replica share), not per call.
func (n *node) Store() storage.Store { return n.st }

// process dispatches one delivery: mutation and invalidation ops go to the
// wire-level data-mutation path (mutate.go), queries to processQuery — the
// latter through the result cache when the call is an initiator query this
// peer can answer from a prior identical one.
func (s *Server) process(call *wire.Call) (*wire.Reply, error) {
	switch call.Op {
	case "":
		// Query call.
	case wire.OpInsert, wire.OpDelete:
		return s.processMutation(call)
	case wire.OpInvalidate:
		return s.processInvalidate(call)
	default:
		return nil, fmt.Errorf("netpeer: unknown op %q", call.Op)
	}
	// A root query is one this peer initiates a propagation for (no inherited
	// global state, not a recovery dispatch). The planner resolves its ripple
	// parameter before anything reads it — the cache identity below includes
	// r, so a planned query shares cache entries with the static run it
	// selects.
	rootQuery := call.ActAs == "" && len(call.Global) == 0
	var planned *plan.Decision
	var pq plan.Query
	planning := rootQuery && s.opts.Planner != nil
	if planning {
		pq = s.planQuery(call)
		if call.R == plan.RAuto {
			dec := s.opts.Planner.Choose(pq)
			planned, call.R = &dec, dec.R
		}
	}
	if rootQuery && call.R < 0 {
		call.R = 0 // RAuto without a planner degrades to fast
	}
	// Only initiator calls consult the cache: sub-calls carry the parent's
	// encoded global state (so their answers depend on traversal position,
	// not just the query), recovery dispatches answer for another peer, and
	// traced runs exist to observe propagation. Cache identity includes r —
	// the radius shapes the candidate set the query returns — and excludes
	// only the initiator peer, which this per-server cache fixes anyway.
	initiator := rootQuery && !call.Traced
	if s.cache == nil || !initiator {
		reply, err := s.processQuery(call)
		if planning {
			reply, err = s.finishPlan(pq, planned, call, reply, err)
		}
		return reply, err
	}
	s.mu.RLock()
	dims := regionDims(s.cfg.Zone)
	s.mu.RUnlock()
	key := cache.Key(call.QueryType, call.Params, dims, call.R, call.Scope)
	if val, ok := s.cache.Get(key); ok {
		if ans, err := cache.DecodeAnswers(val); err == nil {
			reply := &wire.Reply{Answers: ans, CacheHit: true}
			if planned != nil {
				reply.Plan, reply.PlanR = planned.String(), call.R
			}
			return reply, nil
		}
	}
	gen := s.cache.Begin()
	reply, err := s.processQuery(call)
	if planning {
		reply, err = s.finishPlan(pq, planned, call, reply, err)
	}
	if err == nil && reply.Error == "" && !reply.Partial {
		s.cache.Put(key, cache.EncodeAnswers(reply.Answers), dims, call.Scope, gen)
	}
	return reply, err
}

// planQuery describes a root query call to the planner: family and result
// size from the decoded processor's hints, dimensionality and link degree
// from this peer's share, local work from its store statistics.
func (s *Server) planQuery(call *wire.Call) plan.Query {
	s.mu.RLock()
	cfg := s.cfg
	st := s.store
	s.mu.RUnlock()
	q := plan.Query{Family: call.QueryType, Dims: regionDims(cfg.Zone), Degree: len(cfg.Links), Local: st.Stats()}
	if codec := s.codecs[call.QueryType]; codec != nil {
		if proc, err := codec.NewProcessor(call.Params); err == nil {
			if h, ok := proc.(plan.Hinter); ok {
				hints := h.PlanHints()
				q.Family, q.K = hints.Family, hints.K
			}
		}
	}
	return q
}

// finishPlan closes the planner loop on a completed root query: it feeds the
// observed cost back to the model and stamps the decision onto the reply (and
// onto the root span of a traced run, mirroring the structural engine).
// Failed queries teach the model nothing — their counters describe an
// interrupted propagation, not the mode's cost.
func (s *Server) finishPlan(pq plan.Query, planned *plan.Decision, call *wire.Call, reply *wire.Reply, err error) (*wire.Reply, error) {
	if err != nil || reply == nil || reply.Error != "" {
		return reply, err
	}
	if !reply.CacheHit {
		s.opts.Planner.Observe(pq, call.R, reply.Completion, reply.QueryMsgs+reply.StateMsgs)
	}
	if planned != nil {
		reply.Plan, reply.PlanR = planned.String(), call.R
		if call.Traced {
			for i := range reply.Spans {
				if reply.Spans[i].ID == call.SpanID {
					reply.Spans[i].Plan = planned.String()
				}
			}
		}
	}
	return reply, err
}

// regionDims reports the dimensionality of a region's boxes (0 when empty).
func regionDims(r overlay.Region) int {
	if len(r.Boxes) == 0 {
		return 0
	}
	return len(r.Boxes[0].Lo)
}

// processQuery executes this peer's slice of Algorithm 3 for one delivery. A
// call carrying ActAs is a recovery dispatch: the peer serves it from the
// named dead primary's mirrored share, so everything below — links followed,
// zone answered for, the identity on replies and spans — is the primary's,
// while the transport identity (fault decisions, logs) stays this peer's own.
func (s *Server) processQuery(call *wire.Call) (*wire.Reply, error) {
	s.mu.RLock()
	cfg := s.cfg
	st := s.store
	s.mu.RUnlock()

	if call.ActAs != "" && call.ActAs != cfg.ID {
		share := findShare(cfg.Replicas, call.ActAs)
		if share == nil {
			return nil, fmt.Errorf("netpeer %s: no replica share for peer %q", cfg.ID, call.ActAs)
		}
		cfg = Config{ID: share.ID, Zone: share.Zone, Tuples: share.Tuples, Links: share.Links}
		s.mu.RLock()
		st = s.repStores[share.ID]
		s.mu.RUnlock()
		if st == nil { // share installed without SetReplicas (hand-built Config)
			st = storage.New(s.opts.Storage, share.Tuples)
		}
	}

	codec := s.codecs[call.QueryType]
	if codec == nil {
		return nil, fmt.Errorf("netpeer %s: unknown query type %q", cfg.ID, call.QueryType)
	}
	proc, err := codec.NewProcessor(call.Params)
	if err != nil {
		return nil, err
	}
	var global core.State
	if len(call.Global) == 0 {
		global = proc.InitialState() // the query's own neutral state
	} else {
		global, err = codec.DecodeState(call.Global)
		if err != nil {
			return nil, err
		}
	}

	w := &node{cfg: &cfg, st: st}
	// Scoped queries see the share through the restriction lens: the
	// processor reads only in-scope tuples, and overlay.Restricted hides the
	// store and score index so every runtime and storage engine falls back to
	// the same flat scan over the filtered share — scoped answers stay
	// byte-identical everywhere. An empty scope is the identity.
	pw := overlay.Restricted(w, call.Scope)
	local := proc.LocalState(pw, global)
	wGlobal := proc.GlobalState(pw, global, local)

	reply := &wire.Reply{QueryMsgs: 1, Peers: []string{cfg.ID}}
	tr := newTracer(call)

	if call.R > 0 {
		// Slow phase: one link at a time in priority order, folding each
		// link's states back in before deciding the next.
		links := sortLinks(cfg.Links, proc, pw)
		cursor := call.Hops
		contacted := 0
		for _, l := range links {
			sub := l.Region.Intersect(call.Restrict)
			if sub.IsEmpty() || !proc.LinkRelevant(pw, sub, wGlobal) {
				continue
			}
			childID := tr.child(l.key())
			contacted++
			encGlobal, err := codec.EncodeState(wGlobal)
			if err != nil {
				return nil, err
			}
			childCall := &wire.Call{
				QueryType: call.QueryType,
				Params:    call.Params,
				Global:    encGlobal,
				Restrict:  sub,
				Scope:     call.Scope,
				R:         call.R - 1,
				Hops:      cursor + 1,
			}
			tr.childContext(childCall, childID)
			childReply, retries, err := s.callPeer(l, childCall)
			reply.Retries += retries
			if err != nil {
				// Lost link: fail over to the neighbour's zone replicas; only
				// when none can serve the region does the loss go on record.
				s.opts.Logf("netpeer %s: lost slow link to %s after %d retries: %v",
					cfg.ID, l.key(), retries, err)
				tr.lost(childID, l.key(), sub, call.R-1, cursor+1, retries, err)
				s.ins.lostLinks.Inc()
				childReply = s.failover(l, childCall, reply, tr, childID, call.R-1, cursor+1)
				if childReply == nil {
					reply.RecordLostLink(sub, isTimeout(err))
					s.ins.unrecoverable.Inc()
					continue
				}
			} else {
				tr.absorb(childID, childReply.Spans, retries)
			}
			states := []core.State{local}
			for _, sb := range childReply.States {
				st, err := codec.DecodeState(sb)
				if err != nil {
					return nil, err
				}
				states = append(states, st)
				reply.StateMsgs++
				reply.TuplesSent += proc.StateTuples(st)
			}
			local = proc.MergeStates(pw, states)
			wGlobal = proc.GlobalState(pw, global, local)
			cursor = childReply.Completion
			absorbChild(reply, childReply)
		}
		s.ins.fanout.Observe(float64(contacted))
		own := finishReply(reply, codec, proc, pw, local, cursor)
		tr.finish(reply, cfg.ID, proc.StateTuples(local), own)
		return reply, nil
	}

	// Fast phase: all relevant links at once, children called concurrently;
	// their replies are the convergecast.
	type out struct {
		reply   *wire.Reply
		link    LinkSpec
		sub     overlay.Region
		call    *wire.Call
		spanID  uint64
		retries int
		err     error
	}
	var calls []chan out
	encGlobal, err := codec.EncodeState(wGlobal)
	if err != nil {
		return nil, err
	}
	for _, l := range cfg.Links {
		sub := l.Region.Intersect(call.Restrict)
		if sub.IsEmpty() || !proc.LinkRelevant(pw, sub, wGlobal) {
			continue
		}
		childID := tr.child(l.key())
		childCall := &wire.Call{
			QueryType: call.QueryType,
			Params:    call.Params,
			Global:    encGlobal,
			Restrict:  sub,
			Scope:     call.Scope,
			R:         0,
			Hops:      call.Hops + 1,
		}
		tr.childContext(childCall, childID)
		ch := make(chan out, 1)
		calls = append(calls, ch)
		go func(l LinkSpec, sub overlay.Region, childCall *wire.Call, childID uint64) {
			r, retries, err := s.callPeer(l, childCall)
			ch <- out{reply: r, link: l, sub: sub, call: childCall, spanID: childID, retries: retries, err: err}
		}(l, sub, childCall, childID)
	}
	s.ins.fanout.Observe(float64(len(calls)))
	completion := call.Hops
	var childStates [][]byte
	for _, ch := range calls {
		o := <-ch
		reply.Retries += o.retries
		if o.err != nil {
			// Errored fast subtree: never skipped silently — it fails over to
			// the neighbour's replicas, and an unrecoverable region is
			// counted, recorded, and marks the reply partial.
			s.opts.Logf("netpeer %s: lost fast link to %s after %d retries: %v",
				cfg.ID, o.link.key(), o.retries, o.err)
			tr.lost(o.spanID, o.link.key(), o.sub, 0, call.Hops+1, o.retries, o.err)
			s.ins.lostLinks.Inc()
			o.reply = s.failover(o.link, o.call, reply, tr, o.spanID, 0, call.Hops+1)
			if o.reply == nil {
				reply.RecordLostLink(o.sub, isTimeout(o.err))
				s.ins.unrecoverable.Inc()
				continue
			}
		} else {
			tr.absorb(o.spanID, o.reply.Spans, o.retries)
		}
		childStates = append(childStates, o.reply.States...)
		if o.reply.Completion > completion {
			completion = o.reply.Completion
		}
		absorbChild(reply, o.reply)
	}
	own := finishReply(reply, codec, proc, pw, local, completion)
	tr.finish(reply, cfg.ID, proc.StateTuples(local), own)
	reply.States = append(reply.States, childStates...)
	return reply, nil
}

// findShare returns the mirrored share for peer id, or nil when this peer
// holds no replica of it.
func findShare(shares []ReplicaShare, id string) *ReplicaShare {
	for i := range shares {
		if shares[i].ID == id {
			return &shares[i]
		}
	}
	return nil
}

// failover re-dispatches a lost sub-call to the dead neighbour's zone
// replicas in placement order, asking each to act as the dead primary
// (wire.Call.ActAs) until one serves the region or the recovery budget runs
// out. It returns the recovered child reply, or nil when every replica failed
// too — only then does the region belong in FailedRegions. Span IDs for
// failover dispatches derive from the failed primary span, not the parent's
// traversal counter, so both runtimes name recovered subtrees
// identically regardless of dispatch order.
func (s *Server) failover(l LinkSpec, childCall *wire.Call, reply *wire.Reply, tr *tracer, primarySpan uint64, childR, arrive int) *wire.Reply {
	if len(l.Replicas) == 0 {
		return nil
	}
	start := time.Now()
	for n, rep := range l.Replicas {
		if s.opts.RecoveryBudget > 0 && time.Since(start) > s.opts.RecoveryBudget {
			s.opts.Logf("netpeer %s: recovery budget exhausted failing over %s (%d replicas untried)",
				s.cfg.ID, l.key(), len(l.Replicas)-n)
			break
		}
		repCall := *childCall
		repCall.ActAs = l.key()
		repID := trace.ChildID(primarySpan, rep.ID, n+1)
		tr.childContext(&repCall, repID)
		reply.Failovers++
		s.ins.failovers.Inc()
		repLink := LinkSpec{ID: rep.ID, Addr: rep.Addr, Region: l.Region}
		childReply, retries, err := s.callPeer(repLink, &repCall)
		reply.Retries += retries
		if err != nil {
			s.opts.Logf("netpeer %s: replica %s could not act for %s after %d retries: %v",
				s.cfg.ID, rep.ID, l.key(), retries, err)
			tr.lostVia(repID, l.key(), rep.ID, childCall.Restrict, childR, arrive, retries, err)
			continue
		}
		tr.absorbRecovered(repID, childReply.Spans, retries, rep.ID)
		reply.Recovered++
		s.ins.recovered.Inc()
		s.ins.recoverySeconds.Observe(time.Since(start).Seconds())
		return childReply
	}
	return nil
}

// finishReply attaches this peer's own state, answer and completion time,
// returning the number of answer tuples this peer contributed itself.
func finishReply(reply *wire.Reply, codec wire.Codec, proc core.Processor, w overlay.Node, local core.State, completion int) int {
	enc, err := codec.EncodeState(local)
	if err == nil {
		reply.States = append([][]byte{enc}, reply.States...)
	}
	a := proc.LocalAnswer(w, local)
	if len(a) > 0 {
		reply.Answers = append(a, reply.Answers...)
		reply.TuplesSent += len(a)
	}
	reply.Completion = completion
	reply.FailedRegions = overlay.CanonicalRegions(reply.FailedRegions)
	return len(a)
}

// absorbChild folds a child subtree's answers, counters and fault accounting
// into the reply.
func absorbChild(reply, child *wire.Reply) {
	reply.Answers = append(reply.Answers, child.Answers...)
	reply.QueryMsgs += child.QueryMsgs
	reply.StateMsgs += child.StateMsgs
	reply.TuplesSent += child.TuplesSent
	reply.Peers = append(reply.Peers, child.Peers...)
	reply.MergeFaults(child)
}

// callPeer performs one RPC with bounded retries. Transport failures (dial
// refusals, deadlines, injected drops) are retried under the backoff policy;
// a RemoteError — the peer itself reporting a processing crash — is not,
// since re-sending the same call would fail the same way. It returns the
// reply, the number of retry attempts spent, and the final error if the link
// was unrecoverable.
func (s *Server) callPeer(to LinkSpec, call *wire.Call) (*wire.Reply, int, error) {
	var lastErr error
	retries := 0
	for attempt := 0; attempt <= s.opts.Retry.MaxRetries; attempt++ {
		if attempt > 0 {
			retries++
			s.ins.retries.Inc()
			s.ins.backoffs.Inc()
			u := faults.Uniform01(s.opts.Faults.Config().Seed,
				s.cfg.ID, to.key(), "backoff", strconv.Itoa(attempt))
			if !s.sleep(s.opts.Retry.Backoff(attempt, u)) {
				return nil, retries, lastErr
			}
		}
		reply, err := s.callOnce(to, call, attempt)
		if err == nil {
			return reply, retries, nil
		}
		if isTimeout(err) {
			s.ins.deadlines.Inc()
		}
		lastErr = err
		if _, fatal := err.(*RemoteError); fatal {
			break
		}
		select {
		case <-s.closed:
			return nil, retries, lastErr
		default:
		}
	}
	return nil, retries, lastErr
}

// callOnce performs a single RPC attempt — over a pooled connection when one
// is warm — under the configured deadlines, consulting the fault injector.
func (s *Server) callOnce(to LinkSpec, call *wire.Call, attempt int) (*wire.Reply, error) {
	crashed := false
	switch s.opts.Faults.Decide(s.cfg.ID, to.key(), attempt) {
	case faults.Drop:
		return nil, errInjectedDrop
	case faults.Crash:
		crashed = true // perform the RPC (the work happens), lose the reply
	case faults.Delay:
		if !s.sleep(s.opts.Faults.Config().Delay) {
			return nil, errMuxClosed
		}
	}
	start := time.Now()
	defer func() { s.ins.rpcSeconds.Observe(time.Since(start).Seconds()) }()
	reply, err := s.exchange(to.Addr, call)
	if err != nil {
		return nil, err
	}
	if crashed {
		return nil, errInjectedCrash
	}
	if reply.Error != "" {
		return nil, replyErr(to.key(), reply)
	}
	return reply, nil
}

// exchange performs one request/reply. With multiplexing enabled (the
// default) the call rides the shared mux connection to addr as one stream;
// remotes that negotiated down — or predate the mux protocol entirely —
// fall through to the legacy pooled path. On that path a warm pooled
// connection is preferred over a fresh dial, and a connection that fails
// mid-RPC with a non-timeout error is treated as stale — the remote
// restarted while it was parked — and replaced by a fresh dial within the
// same attempt, so pooling never costs a retry the fresh-dial path would
// not have spent. A timeout is surfaced to the retry policy instead: the
// peer is slow, not the connection stale. Healthy connections are re-parked
// after the reply.
//
//ripplevet:transport
func (s *Server) exchange(addr string, call *wire.Call) (*wire.Reply, error) {
	if s.mux != nil {
		mc, legacy, err := s.muxFor(addr)
		if err != nil {
			return nil, err
		}
		if !legacy {
			s.ins.muxStreams.Inc()
			return mc.call(call, s.opts.CallTimeout)
		}
	}
	if s.pool != nil {
		if conn := s.pool.get(addr); conn != nil {
			s.ins.connReuses.Inc()
			reply, err := roundTrip(conn, call, s.opts.CallTimeout)
			if err == nil {
				s.pool.put(addr, conn)
				return reply, nil
			}
			conn.Close()
			if isTimeout(err) {
				return nil, err
			}
			s.ins.staleConns.Inc()
		}
	}
	s.ins.dials.Inc()
	conn, err := net.DialTimeout("tcp", addr, s.opts.DialTimeout)
	if err != nil {
		s.ins.dialFailures.Inc()
		return nil, err
	}
	reply, err := roundTrip(conn, call, s.opts.CallTimeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if s.pool != nil {
		s.pool.put(addr, conn)
	} else {
		if err := conn.Close(); err != nil {
			s.opts.Logf("netpeer %s: closing connection to %s: %v", s.cfg.ID, addr, err)
		}
	}
	return reply, nil
}

// roundTrip arms the whole-call deadline, writes the call, reads the reply,
// and clears the deadline so the connection can be parked for reuse.
//
//ripplevet:transport
func roundTrip(conn net.Conn, call *wire.Call, timeout time.Duration) (*wire.Reply, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := wire.WriteMessage(conn, call); err != nil {
		return nil, err
	}
	var reply wire.Reply
	if err := wire.ReadMessage(conn, &reply); err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	return &reply, nil
}

func sortLinks(links []LinkSpec, proc core.Processor, w overlay.Node) []LinkSpec {
	type ranked struct {
		link LinkSpec
		prio float64
	}
	rs := make([]ranked, len(links))
	for i, l := range links {
		rs[i] = ranked{link: l, prio: proc.LinkPriority(w, l.Region)}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].prio < rs[j].prio })
	out := make([]LinkSpec, len(rs))
	for i, r := range rs {
		out[i] = r.link
	}
	return out
}

// QueryResult is the full outcome of a query against a deployment, including
// the partial-answer accounting: when Partial() reports true, FailedRegions
// lists the only parts of the domain the answer can be missing tuples from,
// so the initiator can report a completeness bound instead of pretending the
// answer is exact.
type QueryResult struct {
	Answers       []dataset.Tuple
	Stats         sim.Stats
	FailedRegions []overlay.Region
	Trace         *trace.Tree // reconstructed hop tree; nil unless QueryTraced
	// CacheHit marks an answer served from the initiator peer's result cache:
	// the answers are the canonical (ID-ordered) form of a prior identical
	// query's, and the cost counters are zero — no propagation happened.
	CacheHit bool
	// Plan and PlanR surface the serving peer's adaptive-planner decision
	// when the query was issued with r = RAuto against a planning peer: the
	// rendered decision and the ripple parameter the query actually executed
	// with. Plan is empty for static queries.
	Plan  string
	PlanR int
}

// Partial reports whether any subtree was lost; it derives from the stats so
// the two can never diverge.
func (r *QueryResult) Partial() bool { return r.Stats.Partial }

// Query runs a query against a deployment from the peer at addr, returning
// the collected answers and cost statistics reconstructed from the reply.
// Partiality is surfaced through the stats (Partial, RPCFailures); use
// QueryDetailed for the lost regions themselves.
func Query(addr, queryType string, params []byte, dims, r int) ([]dataset.Tuple, sim.Stats, error) {
	res, err := QueryDetailed(addr, queryType, params, dims, r, 0)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return res.Answers, res.Stats, nil
}

// QueryDetailed runs a query with an explicit client-side timeout (0 uses
// the default call timeout) and returns the full result including
// partial-answer accounting. A reply whose Error field is set — the
// initiator peer itself failed to process the query — is returned as an
// error.
func QueryDetailed(addr, queryType string, params []byte, dims, r int, timeout time.Duration) (*QueryResult, error) {
	return queryCall(addr, queryType, params, dims, r, timeout, false, overlay.Region{})
}

// QueryScoped is QueryDetailed restricted to a sub-region of the domain: only
// tuples inside scope qualify as answers and the traversal is pruned to it.
// An empty scope behaves exactly like QueryDetailed. Scope — unlike r or the
// peer queried — is part of the result's cache identity on the serving peer.
func QueryScoped(addr, queryType string, params []byte, dims, r int, scope overlay.Region, timeout time.Duration) (*QueryResult, error) {
	return queryCall(addr, queryType, params, dims, r, timeout, false, scope)
}

// QueryTraced is QueryDetailed with hop-tree tracing: every peer records its
// span and convergecasts it back, and the result's Trace holds the query's
// reconstructed propagation tree — structurally identical to the one the
// structural engine produces for the same overlay and r, with lost subtrees
// marked.
func QueryTraced(addr, queryType string, params []byte, dims, r int, timeout time.Duration) (*QueryResult, error) {
	return queryCall(addr, queryType, params, dims, r, timeout, true, overlay.Region{})
}

// Insert applies an insert mutation through the peer at addr: the tuple is
// routed greedily to the owner of its point, applied there, mirrored onto the
// owner's zone replicas, and every peer's result cache is invalidated before
// the call returns. It reports how many peers applied the op.
func Insert(addr string, t dataset.Tuple, timeout time.Duration) (int, error) {
	return mutateCall(addr, wire.OpInsert, t, timeout)
}

// Delete applies a delete mutation through the peer at addr; the tuple is
// matched by ID at the owner of t.Vec. It reports how many peers applied the
// op — zero when no such tuple exists.
func Delete(addr string, t dataset.Tuple, timeout time.Duration) (int, error) {
	return mutateCall(addr, wire.OpDelete, t, timeout)
}

// mutateCall is the one-shot client half of the mutation path.
//
//ripplevet:transport
func mutateCall(addr, op string, t dataset.Tuple, timeout time.Duration) (int, error) {
	if timeout == 0 {
		timeout = DefaultOptions().CallTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	reply, err := roundTrip(conn, &wire.Call{Op: op, Tuple: t}, timeout)
	if err != nil {
		return 0, err
	}
	if reply.Error != "" {
		return 0, replyErr(addr, reply)
	}
	return reply.Acks, nil
}

// queryCall is the one-shot client half of the wire protocol: it dials the
// initiator peer, arms a whole-call deadline, and performs one sequential
// request/reply exchange. It deliberately skips mux negotiation — a single
// call gains nothing from multiplexing and the hello would cost a round
// trip; workloads issuing concurrent queries use Client, which negotiates.
//
//ripplevet:transport
func queryCall(addr, queryType string, params []byte, dims, r int, timeout time.Duration, traced bool, scope overlay.Region) (*QueryResult, error) {
	if timeout == 0 {
		timeout = DefaultOptions().CallTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	reply, err := roundTrip(conn, buildCall(queryType, params, dims, r, traced, scope), timeout)
	if err != nil {
		return nil, err
	}
	if reply.Error != "" {
		return nil, replyErr(addr, reply)
	}
	return resultFromReply(reply, traced), nil
}

// Deploy starts one server per peer of an overlay snapshot on loopback TCP,
// wiring link addresses, and returns the servers plus an id->address map.
// Callers must Close every server.
func Deploy(net_ overlay.Network, codecs ...wire.Codec) ([]*Server, map[string]string, error) {
	return DeployOpts(net_, Options{}, codecs...)
}

// DeployOpts is Deploy with explicit fault-tolerance options shared by every
// peer of the deployment. When Options.Replication > 1 it builds the overlay's
// replica placement, attaches each neighbour's replica holders to the link
// specs, and installs the mirrored shares on the holders, so lost subtrees
// fail over instead of landing in FailedRegions.
func DeployOpts(net_ overlay.Network, opts Options, codecs ...wire.Codec) ([]*Server, map[string]string, error) {
	nodes := net_.Nodes()
	var rm *overlay.ReplicaMap
	if opts.Replication > 1 {
		rm = overlay.BuildReplicas(net_, opts.Replication)
	}
	servers := make([]*Server, len(nodes))
	addrs := make(map[string]string, len(nodes))
	for i, n := range nodes {
		srv := NewServerOpts(Config{ID: n.ID(), Zone: n.Zone(), Tuples: n.Tuples()}, opts, codecs...)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			for _, s := range servers[:i] {
				s.Close()
			}
			return nil, nil, err
		}
		servers[i] = srv
		addrs[n.ID()] = addr
	}
	for i, n := range nodes {
		servers[i].SetLinks(linkSpecsFor(n, addrs, rm))
	}
	if rm != nil {
		// Mirror each primary's share — zone, tuples, and links carrying their
		// own replica addresses, so recovery composes when a replica's onward
		// neighbour is dead too — onto its ring-successor holders.
		holders := make(map[string][]ReplicaShare)
		for _, p := range nodes {
			share := ReplicaShare{ID: p.ID(), Zone: p.Zone(), Tuples: p.Tuples(), Links: linkSpecsFor(p, addrs, rm)}
			for _, rep := range rm.Replicas(p.ID()) {
				holders[rep.ID()] = append(holders[rep.ID()], share)
			}
		}
		for i, n := range nodes {
			if shares := holders[n.ID()]; shares != nil {
				servers[i].SetReplicas(shares)
			}
			servers[i].SetMirrors(replicaAddrs(rm, n.ID(), addrs))
		}
	}
	return servers, addrs, nil
}

// replicaAddrs resolves a peer's replica holders to wire addresses.
func replicaAddrs(rm *overlay.ReplicaMap, id string, addrs map[string]string) []ReplicaAddr {
	var out []ReplicaAddr
	for _, rep := range rm.Replicas(id) {
		out = append(out, ReplicaAddr{ID: rep.ID(), Addr: addrs[rep.ID()]})
	}
	return out
}

// linkSpecsFor converts a node's overlay links to wire form, attaching each
// neighbour's replica holders when a replica placement is in force.
func linkSpecsFor(n overlay.Node, addrs map[string]string, rm *overlay.ReplicaMap) []LinkSpec {
	var links []LinkSpec
	for _, l := range n.Links() {
		spec := LinkSpec{ID: l.To.ID(), Addr: addrs[l.To.ID()], Region: l.Region}
		if rm != nil {
			for _, rep := range rm.Replicas(l.To.ID()) {
				spec.Replicas = append(spec.Replicas, ReplicaAddr{ID: rep.ID(), Addr: addrs[rep.ID()]})
			}
		}
		links = append(links, spec)
	}
	return links
}
