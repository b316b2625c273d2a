package netpeer

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gonet "net"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/metrics"
	"ripple/internal/midas"
	"ripple/internal/overlay"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// slowCodec wraps the topk codec with a fixed processing delay, so tests can
// hold a server's mux workers busy for a deterministic window.
type slowCodec struct {
	topk.WireCodec
	delay time.Duration
}

func (c slowCodec) Name() string { return "slowtopk" }

func (c slowCodec) NewProcessor(params []byte) (core.Processor, error) {
	time.Sleep(c.delay) // runs inside process(), i.e. on a mux worker
	return c.WireCodec.NewProcessor(params)
}

// TestMuxConcurrentQueriesShareOneConnection: a mux client issues many
// queries at once; all must come back exact, multiplexed as streams over a
// single connection instead of serialised or spread over per-call dials.
func TestMuxConcurrentQueriesShareOneConnection(t *testing.T) {
	reg := metrics.New()
	ts := dataset.Uniform(600, 2, 41)
	net := midas.Build(24, midas.Options{Dims: 2, Seed: 7})
	overlay.Load(net, ts)
	opts := quietOpts(t)
	opts.Metrics = reg
	servers, _, err := DeployOpts(net, opts, topk.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	f := topk.UniformLinear(2)
	params := topkParams(t, 2, 12)
	want := topk.Brute(ts, f, 12)

	c := NewClient(servers[3].Addr(), 5*time.Second)
	defer c.Close()
	const concurrency = 32
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers, _, err := c.Query("topk", params, 2, 1<<20)
			if err != nil {
				errs[i] = err
				return
			}
			got := topk.Select(answers, f, 12)
			for j := range want {
				if got[j].ID != want[j].ID {
					errs[i] = errors.New("wrong answer under concurrency")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
	c.mu.Lock()
	mc, seqConn := c.mc, c.conn
	c.mu.Unlock()
	if mc == nil || seqConn != nil {
		t.Fatalf("client transport: mc=%v conn=%v, want a mux connection and no sequential one", mc, seqConn)
	}
	if v := reg.Counter("ripple_netpeer_mux_streams_total", "").Value(); v == 0 {
		t.Fatal("no inter-peer calls were multiplexed")
	}
	if v := reg.Counter("ripple_netpeer_mux_fallbacks_total", "").Value(); v != 0 {
		t.Fatalf("%d remotes negotiated down in an all-mux deployment", v)
	}
	// Every admitted stream must have been released.
	waitGaugeZero(t, reg.Gauge("ripple_netpeer_inflight_streams", ""))
}

func waitGaugeZero(t *testing.T, g *metrics.Gauge) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if g.Value() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("inflight streams = %d, want 0 after quiescence", g.Value())
}

// slowServer starts a single mux peer running slowCodec with the given
// admission limits; it holds the whole domain and no links.
func slowServer(t *testing.T, reg *metrics.Registry, delay time.Duration, workers, queue int) *Server {
	t.Helper()
	opts := quietOpts(t)
	opts.Metrics = reg
	opts.MaxConcurrentCalls = workers
	opts.MaxCallQueue = queue
	srv := NewServerOpts(Config{
		ID:     "slow",
		Zone:   overlay.Whole(2),
		Tuples: dataset.Uniform(50, 2, 47),
	}, opts, slowCodec{delay: delay})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestMuxAdmissionControlSheds: with one worker and a one-slot queue, a
// burst of concurrent streams must see most calls rejected as typed
// overloads — immediately, not after stalling the socket — while the
// admitted ones succeed and the server stays healthy for later traffic.
func TestMuxAdmissionControlSheds(t *testing.T) {
	reg := metrics.New()
	srv := slowServer(t, reg, 80*time.Millisecond, 1, 1)
	params := topkParams(t, 2, 5)
	c := NewClient(srv.Addr(), 5*time.Second)
	defer c.Close()

	// Warm the connection so the burst races only against admission.
	if _, _, err := c.Query("slowtopk", params, 2, 0); err != nil {
		t.Fatal(err)
	}

	const burst = 8
	var ok, overloaded, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Query("slowtopk", params, 2, 0)
			var oe *OverloadError
			switch {
			case err == nil:
				ok.Add(1)
			case errors.As(err, &oe):
				overloaded.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("burst produced %d non-overload errors", other.Load())
	}
	if ok.Load() == 0 || overloaded.Load() == 0 {
		t.Fatalf("burst of %d: %d ok, %d overloaded — want both shedding and progress",
			burst, ok.Load(), overloaded.Load())
	}
	if v := reg.Counter("ripple_netpeer_overload_rejections_total", "").Value(); v != overloaded.Load() {
		t.Fatalf("overload counter %d, want %d", v, overloaded.Load())
	}
	// The server must shed load, not wedge: a follow-up query succeeds.
	if _, _, err := c.Query("slowtopk", params, 2, 0); err != nil {
		t.Fatalf("query after burst: %v", err)
	}
	waitGaugeZero(t, reg.Gauge("ripple_netpeer_inflight_streams", ""))
}

// TestMuxDeadConnectionFailsAllStreams: when the shared connection dies,
// every in-flight stream must fail promptly — not serialise into its own
// discovery of the corpse.
func TestMuxDeadConnectionFailsAllStreams(t *testing.T) {
	reg := metrics.New()
	srv := slowServer(t, reg, 300*time.Millisecond, 8, 8)
	params := topkParams(t, 2, 5)
	c := NewClient(srv.Addr(), 10*time.Second)
	defer c.Close()

	const streams = 4
	errs := make(chan error, streams)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Query("slowtopk", params, 2, 0)
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let all four streams get in flight
	srv.Close()
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("stream survived the server closing mid-call")
		}
	}
	// Four 300 ms calls serialised would take ≥1.2 s; concurrent failure is
	// bounded by one processing window plus teardown.
	if elapsed > time.Second {
		t.Fatalf("streams took %v to fail; a dead connection must fail them together", elapsed)
	}
}

// legacyFakePeer is a pre-mux peer: it speaks only length-prefixed
// sequential frames and drops any connection that sends something else —
// exactly what an old binary does when a hello arrives and reads as an
// oversized frame. It answers every call with the given reply.
func legacyFakePeer(t *testing.T, reply *wire.Reply) string {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn gonet.Conn) {
				defer conn.Close()
				for {
					var call wire.Call
					if err := wire.ReadMessage(conn, &call); err != nil {
						return // a mux hello lands here as an oversized frame
					}
					if err := wire.WriteMessage(conn, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestClientFallsBackToLegacyPeer: a mux client whose hello is dropped must
// rediscover the peer as legacy and complete the query with sequential
// framing on a fresh connection.
func TestClientFallsBackToLegacyPeer(t *testing.T) {
	addr := legacyFakePeer(t, &wire.Reply{
		Answers:    []dataset.Tuple{{ID: 77}},
		Completion: 1,
		QueryMsgs:  1,
		Peers:      []string{"fake"},
	})
	c := NewClient(addr, 2*time.Second)
	defer c.Close()
	answers, stats, err := c.Query("topk", topkParams(t, 2, 1), 2, 0)
	if err != nil {
		t.Fatalf("query against legacy peer: %v", err)
	}
	if len(answers) != 1 || answers[0].ID != 77 || stats.PeersReached() != 1 {
		t.Fatalf("legacy fallback returned %v / %+v", answers, stats)
	}
	c.mu.Lock()
	legacy, mc := c.legacy, c.mc
	c.mu.Unlock()
	if !legacy || mc != nil {
		t.Fatalf("client state after fallback: legacy=%v mc=%v", legacy, mc)
	}
	// Later queries stay on the sequential path without renegotiating.
	if _, _, err := c.Query("topk", topkParams(t, 2, 1), 2, 0); err != nil {
		t.Fatalf("second query after fallback: %v", err)
	}
}

// TestServerFallsBackToLegacyPeer: a muxed server calling a pre-mux
// neighbour must negotiate down for that address and run the call over the
// legacy pooled path, counting the fallback.
func TestServerFallsBackToLegacyPeer(t *testing.T) {
	fakeAddr := legacyFakePeer(t, &wire.Reply{
		Answers:    []dataset.Tuple{{ID: 88}},
		Completion: 2,
		QueryMsgs:  1,
		Peers:      []string{"fake"},
	})
	reg := metrics.New()
	opts := quietOpts(t)
	opts.Metrics = reg
	srv := NewServerOpts(Config{
		ID:     "a",
		Zone:   overlay.Whole(2),
		Tuples: dataset.Uniform(40, 2, 51),
	}, opts, topk.WireCodec{})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetLinks([]LinkSpec{{ID: "fake", Addr: fakeAddr, Region: overlay.Whole(2)}})

	res, err := QueryDetailed(srv.Addr(), "topk", topkParams(t, 2, 60), 2, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Answers {
		if a.ID == 88 {
			found = true
		}
	}
	if !found {
		t.Fatal("legacy neighbour's answer missing from the merged result")
	}
	if v := reg.Counter("ripple_netpeer_mux_fallbacks_total", "").Value(); v != 1 {
		t.Fatalf("mux fallbacks = %d, want 1", v)
	}
	if v := reg.Counter("ripple_netpeer_mux_streams_total", "").Value(); v != 0 {
		t.Fatalf("mux streams = %d toward a legacy-only neighbour", v)
	}
	// The discovery must be sticky: a second query spends no new fallback...
	if _, err := QueryDetailed(srv.Addr(), "topk", topkParams(t, 2, 60), 2, 1<<20, 0); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("ripple_netpeer_mux_fallbacks_total", "").Value(); v != 1 {
		t.Fatalf("mux fallbacks grew to %d; legacy discovery must be sticky", v)
	}
	// ...and rides the warm pooled connection.
	if v := reg.Counter("ripple_netpeer_conn_reuses_total", "").Value(); v == 0 {
		t.Fatal("legacy path never reused the pooled connection")
	}
}

// TestMuxDisabledServerNegotiatesDown: a DisableMux server answers the hello
// with version 0 and the connection continues sequentially — no redial, no
// error, same answers.
func TestMuxDisabledServerNegotiatesDown(t *testing.T) {
	ts := dataset.Uniform(300, 2, 53)
	opts := quietOpts(t)
	opts.DisableMux = true
	srv := NewServerOpts(Config{ID: "seq", Zone: overlay.Whole(2), Tuples: ts}, opts, topk.WireCodec{})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f := topk.UniformLinear(2)
	want := topk.Brute(ts, f, 7)
	c := NewClient(srv.Addr(), 2*time.Second)
	defer c.Close()
	answers, _, err := c.Query("topk", topkParams(t, 2, 7), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := topk.Select(answers, f, 7)
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("rank %d = %v, want %v", i, got[i], want[i])
		}
	}
	c.mu.Lock()
	legacy, mc, conn := c.legacy, c.mc, c.conn
	c.mu.Unlock()
	if !legacy || mc != nil {
		t.Fatalf("client state after version-0 ack: legacy=%v mc=%v", legacy, mc)
	}
	if conn == nil {
		t.Fatal("negotiated-down connection was not kept warm for the sequential path")
	}
}

// TestOverloadErrorClassification: admission rejections must be typed as
// retryable OverloadErrors, not fatal RemoteErrors — the distinction is what
// lets callPeer back off and try again instead of abandoning the subtree.
func TestOverloadErrorClassification(t *testing.T) {
	err := replyErr("p3", &wire.Reply{Error: wire.Overloaded("queue full")})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overloaded reply typed as %T", err)
	}
	if _, fatal := err.(*RemoteError); fatal {
		t.Fatal("overload classified as fatal RemoteError")
	}
	err = replyErr("p3", &wire.Reply{Error: "panic: boom"})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("processing failure typed as %T", err)
	}
}

// TestMuxOversizedFrameReportedOnStream: a stream whose frame exceeds
// MaxFrame gets the typed rejection back on that stream before the
// connection drops, instead of a silent hangup.
func TestMuxOversizedFrameReportedOnStream(t *testing.T) {
	srv := slowServer(t, nil, 0, 2, 2)
	conn, err := gonet.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMuxHello(conn, wire.MuxVersion); err != nil {
		t.Fatal(err)
	}
	if ver, err := wire.ReadMuxHello(conn); err != nil || ver != wire.MuxVersion {
		t.Fatalf("handshake: ver=%d err=%v", ver, err)
	}
	// Hand-build a frame header claiming an over-limit body on stream 5.
	hdr := []byte{0, 0, 0, 5, 0xff, 0xff, 0xff, 0xff}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	var reply wire.Reply
	stream, err := wire.ReadMuxFrame(conn, &reply)
	if err != nil {
		t.Fatalf("reading the rejection: %v", err)
	}
	if stream != 5 {
		t.Fatalf("rejection on stream %d, want 5", stream)
	}
	if reply.Error == "" || !errors.As(replyErr("x", &reply), new(*RemoteError)) {
		t.Fatalf("rejection reply: %+v", reply)
	}
}
