package netpeer

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ripple/internal/can"
	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/midas"
	"ripple/internal/overlay"
	"ripple/internal/skyline"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// quietOpts routes fault diagnostics to the test log and keeps retry waits
// short so failure-path tests stay fast.
func quietOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		DialTimeout: 500 * time.Millisecond,
		CallTimeout: 5 * time.Second,
		Retry:       RetryPolicy{MaxRetries: 2, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, Jitter: 0.2},
		Logf:        t.Logf,
	}
}

func deployMIDAS(t *testing.T, size int, ts []dataset.Tuple, dims int) ([]*Server, map[string]string) {
	t.Helper()
	net := midas.Build(size, midas.Options{Dims: dims, Seed: 7})
	overlay.Load(net, ts)
	return deployNet(t, net, topk.WireCodec{}, skyline.WireCodec{})
}

// deployNet starts a loopback deployment of net under quietOpts, closed when
// the test ends.
func deployNet(t *testing.T, net overlay.Network, codecs ...wire.Codec) ([]*Server, map[string]string) {
	t.Helper()
	servers, addrs, err := DeployOpts(net, quietOpts(t), codecs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	return servers, addrs
}

func TestTopKOverTCP(t *testing.T) {
	ts := dataset.NBA(3000, 2)
	servers, _ := deployMIDAS(t, 24, ts, 6)

	f := topk.UniformLinear(6)
	params, err := topk.WireCodec{}.EncodeParams(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := topk.Brute(ts, f, 10)
	for _, r := range []int{0, 2, 1 << 20} {
		answers, stats, err := Query(servers[3].Addr(), "topk", params, 6, r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		got := topk.Select(answers, f, 10)
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("r=%d: rank %d = %v, want %v", r, i, got[i], want[i])
			}
		}
		if stats.PeersReached() == 0 || stats.Latency < 0 {
			t.Fatalf("r=%d: bogus stats %+v", r, stats)
		}
	}
}

func TestSkylineOverTCP(t *testing.T) {
	ts := dataset.Synth(dataset.SynthConfig{N: 1500, Dims: 3, Centers: 15, Seed: 3})
	servers, _ := deployMIDAS(t, 16, ts, 3)

	want := skyline.Compute(ts)
	for _, r := range []int{0, 1 << 20} {
		answers, _, err := Query(servers[0].Addr(), "skyline", nil, 3, r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		got := skyline.Compute(answers)
		if len(got) != len(want) {
			t.Fatalf("r=%d: skyline %d vs %d", r, len(got), len(want))
		}
	}
}

func TestTCPCostsMatchEngine(t *testing.T) {
	// The networked protocol must reproduce the structural engine's costs:
	// same peers touched and the same hop-clock latency.
	ts := dataset.NBA(2000, 5)
	net := midas.Build(20, midas.Options{Dims: 6, Seed: 11})
	overlay.Load(net, ts)
	addrs, params := deployTopK(t, net, 5)

	f := topk.UniformLinear(6)
	for _, r := range []int{0, 1, 1 << 20} {
		w := net.Peers()[4]
		_, engineStats := topk.Run(w, f, 5, r)
		_, tcpStats, err := Query(addrs[w.ID()], "topk", params, 6, r)
		if err != nil {
			t.Fatal(err)
		}
		if engineStats.Latency != tcpStats.Latency {
			t.Fatalf("r=%d: latency engine %d vs tcp %d", r, engineStats.Latency, tcpStats.Latency)
		}
		if engineStats.QueryMsgs != tcpStats.QueryMsgs || engineStats.StateMsgs != tcpStats.StateMsgs {
			t.Fatalf("r=%d: query/state msgs engine %d/%d vs tcp %d/%d", r,
				engineStats.QueryMsgs, engineStats.StateMsgs, tcpStats.QueryMsgs, tcpStats.StateMsgs)
		}
		// A healthy deployment must look exactly like the seed behaviour:
		// nothing partial, nothing failed, nothing retried.
		if tcpStats.Partial || tcpStats.RPCFailures != 0 || tcpStats.Retries != 0 || tcpStats.TimedOut != 0 {
			t.Fatalf("r=%d: fault accounting non-zero on a healthy deployment: %+v", r, tcpStats)
		}
	}
}

// deployTopK starts a loopback top-k deployment of net and returns the
// encoded parameters of a uniform-weight top-k query of size k.
func deployTopK(t *testing.T, net overlay.Network, k int) (map[string]string, []byte) {
	t.Helper()
	_, addrs := deployNet(t, net, topk.WireCodec{})
	params, err := topk.WireCodec{}.EncodeParams(topk.UniformLinear(net.Dims()), k)
	if err != nil {
		t.Fatal(err)
	}
	return addrs, params
}

// TestLemmaLatenciesOverTCP: on a perfect MIDAS tree with a top-k whose K
// exceeds the tuple count, nothing prunes, so the hop clock the concurrent
// TCP runtime reconstructs must equal the Lemma 1-3 worst case exactly.
func TestLemmaLatenciesOverTCP(t *testing.T) {
	const depth = 6
	net := midas.BuildPerfect(depth, midas.Options{Dims: 2, Seed: 1})
	overlay.Load(net, dataset.Uniform(50, 2, 1))
	addrs, params := deployTopK(t, net, 51)
	for r := 0; r <= depth; r++ {
		_, stats, err := Query(addrs[net.Peers()[0].ID()], "topk", params, 2, r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if want := core.RippleWorstLatency(depth, 0, r); stats.Latency != want {
			t.Fatalf("r=%d: tcp latency %d, lemma predicts %d", r, stats.Latency, want)
		}
	}
}

// TestBroadcastExactlyOnceOverTCP: a fast-mode query that never prunes
// reaches every peer exactly once and collects every tuple.
func TestBroadcastExactlyOnceOverTCP(t *testing.T) {
	net := midas.Build(128, midas.Options{Dims: 3, Seed: 11})
	overlay.Load(net, dataset.Uniform(400, 3, 2))
	addrs, params := deployTopK(t, net, 401)
	answers, stats, err := Query(addrs[net.Peers()[0].ID()], "topk", params, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueryMsgs != 128 || stats.MaxPerPeer() != 1 {
		t.Fatalf("tcp broadcast: msgs=%d maxPerPeer=%d", stats.QueryMsgs, stats.MaxPerPeer())
	}
	if len(answers) != 400 {
		t.Fatalf("collected %d tuples, want 400", len(answers))
	}
}

// TestCANFragmentsOverTCP: over CAN a peer can receive several restriction
// fragments of one query; the ranks must still equal the brute-force top-k.
// K is large enough that the traversal reaches peers over partial links.
func TestCANFragmentsOverTCP(t *testing.T) {
	const k = 50
	ts := dataset.NBA(2000, 4)
	net := can.Build(48, can.Options{Dims: 6, Seed: 5})
	overlay.Load(net, ts)
	addrs, params := deployTopK(t, net, k)
	f := topk.UniformLinear(6)
	want := topk.Brute(ts, f, k)
	for _, r := range []int{0, 2, 1 << 20} {
		answers, stats, err := Query(addrs[net.Peers()[0].ID()], "topk", params, 6, r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if stats.MaxPerPeer() < 2 {
			t.Fatalf("r=%d: no peer received a second fragment; the test is vacuous", r)
		}
		got := topk.Select(answers, f, k)
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("r=%d: CAN tcp rank %d = %v, want %v", r, i, got[i], want[i])
			}
		}
	}
}

func TestUnknownQueryTypeReportsRemoteError(t *testing.T) {
	ts := dataset.Uniform(100, 2, 1)
	servers, _ := deployMIDAS(t, 4, ts, 2)
	_, _, err := Query(servers[0].Addr(), "nope", nil, 2, 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown query type must surface as RemoteError, got %v", err)
	}
	if !strings.Contains(re.Msg, "unknown query type") {
		t.Fatalf("remote error lost its cause: %q", re.Msg)
	}
	// The failure must not poison the server for well-formed queries.
	good, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(2), 3)
	answers, _, err := Query(servers[0].Addr(), "topk", good, 2, 0)
	if err != nil || len(answers) == 0 {
		t.Fatalf("server unusable after unknown query type: %v", err)
	}
}

func TestDiversifySingleOverTCP(t *testing.T) {
	ts := dataset.MIRFlickr(1200, 9)
	net := midas.Build(16, midas.Options{Dims: 5, Seed: 19})
	overlay.Load(net, ts)
	servers, _ := deployNet(t, net, diversify.WireCodec{})

	q := diversify.NewQuery(ts[4].Vec, 0.5)
	base := dataset.Sample(ts, 3, 2)
	exclude := map[uint64]bool{}
	for _, b := range base {
		exclude[b.ID] = true
	}
	params, err := (diversify.WireCodec{}).EncodeParams(q, base, exclude, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	want := diversify.BruteSingle(ts, q, base, exclude, math.Inf(1))
	for _, r := range []int{0, 1 << 20} {
		answers, _, err := Query(servers[0].Addr(), "diversify", params, 5, r)
		if err != nil {
			t.Fatal(err)
		}
		var best *dataset.Tuple
		bestScore := math.Inf(1)
		for i := range answers {
			s := q.Phi(answers[i].Vec, base)
			if s < bestScore || (s == bestScore && best != nil && answers[i].ID < best.ID) {
				best, bestScore = &answers[i], s
			}
		}
		if best == nil || want == nil {
			t.Fatalf("r=%d: nil result", r)
		}
		if best.ID != want.ID && math.Abs(q.Phi(best.Vec, base)-q.Phi(want.Vec, base)) > 1e-12 {
			t.Fatalf("r=%d: TCP single-tuple answer %v, want %v", r, best, want)
		}
	}
}

func TestFileConfigRoundTrip(t *testing.T) {
	ts := dataset.Uniform(100, 2, 6)
	net := midas.Build(4, midas.Options{Dims: 2, Seed: 3})
	overlay.Load(net, ts)
	plans, err := Plan(net, "127.0.0.1", 7900)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("%d plans", len(plans))
	}
	total := 0
	for _, fc := range plans {
		var buf bytes.Buffer
		if err := WriteConfig(&buf, fc); err != nil {
			t.Fatal(err)
		}
		got, err := ReadConfig(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Peer.ID != fc.Peer.ID || got.Addr != fc.Addr || got.Dims != 2 {
			t.Fatalf("round trip lost identity: %+v", got)
		}
		if len(got.Peer.Links) != len(fc.Peer.Links) {
			t.Fatal("links lost")
		}
		total += len(got.Peer.Tuples)
	}
	if total != 100 {
		t.Fatalf("tuples across configs = %d, want 100", total)
	}
	if _, err := ReadConfig(bytes.NewReader([]byte("{}"))); err == nil {
		t.Fatal("incomplete config must be rejected")
	}
}

// FuzzReadConfig: no input may panic ReadConfig, and a config it accepts
// comes back unchanged through WriteConfig and ReadConfig. The committed
// seeds under testdata/fuzz are ripple-plan output for a small overlay, with
// and without zone replication.
func FuzzReadConfig(f *testing.F) {
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, b []byte) {
		fc, err := ReadConfig(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteConfig(&buf, fc); err != nil {
			t.Fatalf("accepted config does not re-encode: %v", err)
		}
		again, err := ReadConfig(&buf)
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, fc) {
			t.Fatalf("config changed across a write/read round trip:\n got %+v\nwant %+v", again, fc)
		}
	})
}

func TestServerSurvivesMalformedCall(t *testing.T) {
	ts := dataset.Uniform(50, 2, 2)
	servers, _ := deployMIDAS(t, 2, ts, 2)
	// Query with the wrong dimensionality: the peer must not crash, and the
	// recovered panic must come back as a RemoteError naming the peer —
	// distinguishable from a legitimately empty answer set.
	params, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(5), 3)
	_, _, err := Query(servers[0].Addr(), "topk", params, 5, 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("malformed call must surface as RemoteError, got %v", err)
	}
	if !strings.Contains(re.Msg, "panic") {
		t.Fatalf("remote error lost the recovered panic: %q", re.Msg)
	}
	good, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(2), 3)
	answers, _, err := Query(servers[0].Addr(), "topk", good, 2, 0)
	if err != nil || len(answers) == 0 {
		t.Fatalf("server unusable after malformed call: %v", err)
	}
}

func TestQuerySurvivesDeadPeers(t *testing.T) {
	// Failure injection: kill a third of the deployment, then query. The
	// protocol must still terminate within the deadline budget and return the
	// answers held by reachable peers, with the loss on the record: the reply
	// is marked partial and every dead subtree's region is reported.
	ts := dataset.NBA(3000, 8)
	net := midas.Build(24, midas.Options{Dims: 6, Seed: 21})
	overlay.Load(net, ts)
	servers, _, err := DeployOpts(net, quietOpts(t), topk.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers[8:] {
			s.Close()
		}
	}()
	for _, s := range servers[:8] {
		s.Close() // a third of the overlay goes dark
	}

	f := topk.UniformLinear(6)
	params, _ := (topk.WireCodec{}).EncodeParams(f, 10)
	for _, r := range []int{0, 1 << 20} {
		start := time.Now()
		res, err := QueryDetailed(servers[12].Addr(), "topk", params, 6, r, 30*time.Second)
		if err != nil {
			t.Fatalf("r=%d: query failed outright: %v", r, err)
		}
		if elapsed := time.Since(start); elapsed > 20*time.Second {
			t.Fatalf("r=%d: query took %v with dead peers (must stay within the deadline budget)", r, elapsed)
		}
		if res.Stats.PeersReached() == 0 {
			t.Fatalf("r=%d: nothing processed", r)
		}
		if res.Stats.PeersReached() > 16 {
			t.Fatalf("r=%d: reached %d peers with 8 dead", r, res.Stats.PeersReached())
		}
		if !res.Partial() || !res.Stats.Partial {
			t.Fatalf("r=%d: dead subtrees must mark the answer partial", r)
		}
		if len(res.FailedRegions) == 0 || res.Stats.RPCFailures == 0 {
			t.Fatalf("r=%d: lost links unaccounted: regions=%d failures=%d",
				r, len(res.FailedRegions), res.Stats.RPCFailures)
		}
		if res.Stats.Retries == 0 {
			t.Fatalf("r=%d: dead links must have been retried before being declared lost", r)
		}
		for _, reg := range res.FailedRegions {
			if reg.IsEmpty() {
				t.Fatalf("r=%d: empty failed region recorded", r)
			}
		}
		// Answers must be a subset of the true data and internally consistent.
		got := topk.Select(res.Answers, f, 10)
		if len(got) == 0 {
			t.Fatalf("r=%d: no answers from surviving peers", r)
		}
	}
}
