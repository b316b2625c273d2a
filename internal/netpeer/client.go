package netpeer

import (
	"net"
	"sync"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/overlay"
	"ripple/internal/sim"
	"ripple/internal/trace"
	"ripple/internal/wire"
)

// buildCall assembles the initiator's root call. A non-empty scope restricts
// the query to that sub-region: it prunes the traversal (the root restriction
// starts at the scope instead of the whole domain, mirroring what the
// structural engine does) and rides every sub-call so peers filter their local
// answers to it.
func buildCall(queryType string, params []byte, dims, r int, traced bool, scope overlay.Region) *wire.Call {
	call := &wire.Call{
		QueryType: queryType,
		Params:    params,
		Restrict:  overlay.Whole(dims),
		Scope:     scope,
		R:         r,
		Hops:      0,
	}
	if !scope.IsEmpty() {
		call.Restrict = scope
	}
	if traced {
		call.Traced = true
		call.SpanID = trace.RootID
	}
	return call
}

// resultFromReply reconstructs the query outcome from the initiator's reply.
func resultFromReply(reply *wire.Reply, traced bool) *QueryResult {
	res := &QueryResult{
		Answers:       reply.Answers,
		FailedRegions: reply.FailedRegions,
		CacheHit:      reply.CacheHit,
		Plan:          reply.Plan,
		PlanR:         reply.PlanR,
	}
	for _, p := range reply.Peers {
		res.Stats.Touch(p)
	}
	res.Stats.Latency = reply.Completion
	res.Stats.StateMsgs = reply.StateMsgs
	res.Stats.TuplesSent = reply.TuplesSent
	res.Stats.RPCFailures = reply.Failures
	res.Stats.Recovered = reply.Recovered
	res.Stats.Failovers = reply.Failovers
	res.Stats.Retries = reply.Retries
	res.Stats.TimedOut = reply.TimedOut
	res.Stats.Partial = reply.Partial
	if traced {
		res.Trace = trace.Build(reply.Spans)
	}
	return res
}

// Client is an initiator-side handle on one deployment peer that keeps its
// TCP connection warm across queries, so a workload issuing many queries
// pays one handshake instead of one per query. The package-level Query
// functions remain the one-shot path. A Client is safe for concurrent use.
// By default it negotiates the multiplexed protocol on first use, so
// concurrent queries share the single connection as independent streams; a
// remote that only speaks the sequential protocol — or a Client built with
// NewSequentialClient — serialises concurrent queries on the connection
// instead, which is the pre-mux behaviour.
type Client struct {
	addr       string
	timeout    time.Duration
	sequential bool

	mu     sync.Mutex
	conn   net.Conn // warm sequential-protocol connection
	mc     *muxConn
	legacy bool // remote negotiated down; stick to the sequential protocol
	wg     sync.WaitGroup
}

// NewClient returns a client for the peer at addr. timeout bounds each
// query end to end (0 uses the default call timeout). The client does not
// connect until the first query.
func NewClient(addr string, timeout time.Duration) *Client {
	if timeout == 0 {
		timeout = DefaultOptions().CallTimeout
	}
	return &Client{addr: addr, timeout: timeout}
}

// NewSequentialClient returns a client pinned to the sequential one-call-
// per-connection protocol, skipping mux negotiation entirely. Kept for
// benchmarks against the pre-mux transport and for remotes known to predate
// it (saves the hello round trip the negotiation would spend discovering
// that).
func NewSequentialClient(addr string, timeout time.Duration) *Client {
	c := NewClient(addr, timeout)
	c.sequential = true
	return c
}

// Close tears down the warm connection, if any, failing any in-flight
// streams. The client stays usable: the next query redials.
func (c *Client) Close() error {
	c.mu.Lock()
	mc := c.mc
	conn := c.conn
	c.mc = nil
	c.conn = nil
	c.mu.Unlock()
	if mc != nil {
		mc.fail(errMuxClosed)
	}
	var err error
	if conn != nil {
		err = conn.Close()
	}
	c.wg.Wait() // the mux read loop exits once its connection is closed
	return err
}

// do performs one exchange: as a stream on the shared mux connection when
// the remote speaks the protocol, over the warm sequential connection
// otherwise. A reused connection that fails with a non-timeout error is
// assumed stale (the peer restarted since it was parked) and the exchange
// is repeated once on a fresh dial — for a mux connection that means a
// fresh negotiation, so a remote that restarted with a different protocol
// version is rediscovered rather than assumed.
func (c *Client) do(call *wire.Call) (*wire.Reply, error) {
	for attempt := 0; attempt < 2; attempt++ {
		mc, reused, err := c.muxTransport()
		if err != nil {
			return nil, err
		}
		if mc == nil {
			break // sequential protocol
		}
		reply, err := mc.call(call, c.timeout)
		if err == nil {
			return reply, nil
		}
		if !reused || isTimeout(err) {
			return nil, err
		}
		c.mu.Lock()
		if c.mc == mc {
			c.mc = nil
		}
		c.mu.Unlock()
	}
	return c.doSequential(call)
}

// muxTransport returns the live mux connection, negotiating one on first
// use. nil with no error means the client runs the sequential protocol —
// pinned, or discovered from the remote's answer to the hello. reused
// reports whether the connection predates this call (and so may be stale).
//
//ripplevet:transport
func (c *Client) muxTransport() (mc *muxConn, reused bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sequential || c.legacy {
		return nil, false, nil
	}
	if c.mc != nil && !c.mc.isDead() {
		return c.mc, true, nil
	}
	c.mc = nil
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, false, err
	}
	ver, err := muxHandshake(conn, c.timeout)
	if err != nil {
		conn.Close()
		if isTimeout(err) {
			return nil, false, err // hung remote, not a legacy one
		}
		c.legacy = true // pre-mux remote dropped the hello
		return nil, false, nil
	}
	if ver == 0 {
		// The remote declined multiplexing; the sequential protocol
		// continues on this same connection, so park it warm.
		c.legacy = true
		if c.conn != nil {
			c.conn.Close()
		}
		c.conn = conn
		return nil, false, nil
	}
	m := newMuxConn(conn, c.timeout)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		m.readLoop()
	}()
	c.mc = m
	return m, false, nil
}

// doSequential is the pre-mux exchange over the warm sequential connection,
// dialling on first use. Concurrent queries serialise on the connection.
//
//ripplevet:transport
func (c *Client) doSequential(call *wire.Call) (*wire.Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reused := c.conn != nil
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return nil, err
		}
		c.conn = conn
	}
	reply, err := roundTrip(c.conn, call, c.timeout)
	if err != nil {
		c.conn.Close()
		c.conn = nil
		if !reused || isTimeout(err) {
			return nil, err
		}
		conn, derr := net.DialTimeout("tcp", c.addr, c.timeout)
		if derr != nil {
			return nil, derr
		}
		reply, err = roundTrip(conn, call, c.timeout)
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.conn = conn
	}
	return reply, nil
}

// query is the shared body of the Query variants.
func (c *Client) query(queryType string, params []byte, dims, r int, traced bool, scope overlay.Region) (*QueryResult, error) {
	reply, err := c.do(buildCall(queryType, params, dims, r, traced, scope))
	if err != nil {
		return nil, err
	}
	if reply.Error != "" {
		return nil, replyErr(c.addr, reply)
	}
	return resultFromReply(reply, traced), nil
}

// Query runs a query over the warm connection; see the package-level Query.
func (c *Client) Query(queryType string, params []byte, dims, r int) ([]dataset.Tuple, sim.Stats, error) {
	res, err := c.query(queryType, params, dims, r, false, overlay.Region{})
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return res.Answers, res.Stats, nil
}

// QueryDetailed runs a query over the warm connection and returns the full
// result including partial-answer accounting.
func (c *Client) QueryDetailed(queryType string, params []byte, dims, r int) (*QueryResult, error) {
	return c.query(queryType, params, dims, r, false, overlay.Region{})
}

// QueryScoped is QueryDetailed restricted to a sub-region of the domain: only
// tuples inside scope qualify, and the traversal is pruned to it. An empty
// scope behaves exactly like QueryDetailed.
func (c *Client) QueryScoped(queryType string, params []byte, dims, r int, scope overlay.Region) (*QueryResult, error) {
	return c.query(queryType, params, dims, r, false, scope)
}

// QueryTraced is QueryDetailed with hop-tree tracing.
func (c *Client) QueryTraced(queryType string, params []byte, dims, r int) (*QueryResult, error) {
	return c.query(queryType, params, dims, r, true, overlay.Region{})
}

// Insert applies an insert mutation through this peer: the tuple is routed to
// the owner of its point, applied there, mirrored onto the owner's zone
// replicas, and result caches across the deployment are invalidated before
// the call returns. It reports how many peers applied the op (owner plus
// mirrors).
func (c *Client) Insert(t dataset.Tuple) (int, error) {
	return c.mutate(wire.OpInsert, t)
}

// Delete applies a delete mutation through this peer; the tuple is matched by
// ID at the owner of t.Vec. It reports how many peers applied the op — zero
// when no such tuple exists.
func (c *Client) Delete(t dataset.Tuple) (int, error) {
	return c.mutate(wire.OpDelete, t)
}

func (c *Client) mutate(op string, t dataset.Tuple) (int, error) {
	reply, err := c.do(&wire.Call{Op: op, Tuple: t})
	if err != nil {
		return 0, err
	}
	if reply.Error != "" {
		return 0, replyErr(c.addr, reply)
	}
	return reply.Acks, nil
}
