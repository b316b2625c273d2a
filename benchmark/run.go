package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ripple/benchmark/sut"
)

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	binDir    string
	outDir    string // benchmark/out: work directories and span files
	spec      spec
	seed      int64
	seconds   float64 // measured time across the phases
	trace     bool
	conns     int      // connections, and fixed initiator peers
	serveArgs []string // experiment switch: extra ripple-serve arguments
	log       io.Writer
}

// Shares of runConfig.seconds. An untraced run spends it on the closed phase
// and the two open steps; a traced run squeezes those into plainShare and
// spends the rest on the traced closed loop of a re-booted fleet.
const (
	closedShare = 0.40
	midShare    = 0.45
	hiShare     = 0.15
	plainShare  = 0.60

	// dataSeed fixes every workload's dataset, overlay and (for zipf_rw) pool
	// of scoped queries. The run's seed drives what is asked of them — the
	// operation stream and the arrival schedule — and not what they hold:
	// zone shapes and link tables move throughput by a quarter from one
	// dataset to the next, and the pool's boxes decide the cache's hit ratio,
	// either of which would drown any bound this benchmark could set.
	dataSeed = 20140324

	// setups is how many times an untraced run sets the fleet up; setup_s is
	// their median, so one slow boot does not decide the metric.
	setups = 3
	// warmOps is how many operations each connection sends to warm a fresh
	// fleet: connections, codec pools, planner tables, cache.
	warmOps = 120
	// tracedEvery: one traced-phase read in ten asks for its hop tree.
	tracedEvery = 10
	// probeQueries is how many sampled reads the layer probes replay.
	probeQueries = 60
)

// runResult is what one run reports.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// The rest is for the -workload all document, not the driver.
	budget   map[string]float64
	notes    []string
	failures map[string]int
}

// runner holds what must be torn down however a run ends.
type runner struct {
	mu     sync.Mutex
	fleets []*sut.Fleet
}

func (r *runner) track(f *sut.Fleet) {
	r.mu.Lock()
	r.fleets = append(r.fleets, f)
	r.mu.Unlock()
}

// stopAll kills every fleet this runner booted; safe from a signal handler's
// goroutine and more than once.
func (r *runner) stopAll() {
	r.mu.Lock()
	fleets := append([]*sut.Fleet(nil), r.fleets...)
	r.mu.Unlock()
	for _, f := range fleets {
		f.Stop()
	}
}

// liveFleet is a booted, warmed fleet with its load generator.
type liveFleet struct {
	fleet   *sut.Fleet
	gen     *loadgen
	oracle  *oracle
	setup   time.Duration // plan start to end of warm-up
	warm    time.Duration
	warmRec []record
}

func (lf *liveFleet) stop() {
	lf.gen.close()
	lf.fleet.Stop()
}

// setUp boots a fleet over the dataset and warms it.
func (r *runner) setUp(cfg *runConfig, data []sut.Tuple, pool []poolQuery, metrics bool, tag string) (*liveFleet, error) {
	start := time.Now()
	fleet, err := sut.Boot(sut.FleetConfig{
		BinDir: cfg.binDir, Dir: filepath.Join(cfg.outDir, fmt.Sprintf("work-%d", os.Getpid()), tag),
		Peers: cfg.spec.peers, Data: data, PlanSeed: dataSeed,
		CacheBytes: cfg.spec.cacheBytes, FaultDelay: cfg.spec.faultDelay, PlanAuto: cfg.spec.planAuto,
		MetricsAddr: metrics, ExtraArgs: cfg.serveArgs,
	})
	if err != nil {
		return nil, err
	}
	r.track(fleet)
	gen := newLoadgen(&cfg.spec, pool, cfg.seed, fleet, cfg.conns)
	warmStart := time.Now()
	warm := preamble(&cfg.spec, fleet)
	warm = append(warm, gen.closed(phaseWarm, 10*time.Second, warmOps/cfg.spec.depth)...)
	lf := &liveFleet{fleet: fleet, gen: gen, oracle: newOracle(&cfg.spec, pool, data),
		setup: time.Since(start), warm: time.Since(warmStart), warmRec: warm}
	if err := fleet.Err(); err != nil {
		lf.stop()
		return nil, err
	}
	return lf, nil
}

// preamble sends every peer one query of each family, one at a time, in a
// fixed order, before any concurrent traffic. It exists because of how the
// system under test behaves today: encoding/gob numbers a process's types in
// the order it first meets them, the wire layer's pooled decoder only takes
// its fast path for messages whose type numbers match its own, and a peer
// whose first two queries raced numbers its types differently from its
// neighbours for the rest of its life. Left to the seeded traffic, the share
// of peers in that state — and with it a fifth of fanout_cpu's throughput —
// changed from seed to seed. The preamble gives every peer of every run the
// same first-use order, so runs are comparable; README.md records the finding.
func preamble(s *spec, fleet *sut.Fleet) []record {
	queries := []sut.Query{
		{Family: sut.Skyline},
		{Family: sut.TopK, K: 1, Weights: ones(s.dims)},
		{Family: sut.KNN, K: 1, Center: make([]float64, s.dims)},
	}
	var recs []record
	for _, q := range queries {
		for _, addr := range fleet.Addrs {
			c := sut.Dial(addr, s.dims, callTimeout)
			r := record{op: op{Kind: opSkyline}, start: time.Now()}
			if _, err := c.Do(q, false); err != nil {
				r.outcome, r.err = errOutcome, "preamble "+q.Family+": "+err.Error()
			}
			r.end = time.Now()
			c.Close()
			recs = append(recs, r)
		}
	}
	return recs
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// tally folds a phase's records into the run's failure accounting.
func (res *runResult) tally(recs []record) {
	for i := range recs {
		res.Attempted++
		if recs[i].failed() {
			res.Failed++
			res.failures[recs[i].outcome.String()]++
			if len(res.notes) < 8 {
				res.notes = append(res.notes, fmt.Sprintf("%s %s: %s", recs[i].op.Kind, recs[i].outcome, recs[i].err))
			}
			switch recs[i].outcome {
			case mismatchOutcome, partialOutcome:
				res.Correct = false
			}
		}
	}
}

// windowedRate is the closed phase's throughput: correct operations completed
// per one-second window, median over the phase's whole windows. A stall of a
// second or two — a neighbour on the box, a collection in every peer at once
// — costs the mean its full length and the median nothing.
func windowedRate(recs []record, start time.Time, length time.Duration) float64 {
	n := int(length / time.Second)
	if n < 3 {
		return float64(okCount(recs)) / length.Seconds()
	}
	windows := make([]float64, n)
	for i := range recs {
		if w := int(recs[i].end.Sub(start) / time.Second); !recs[i].failed() && w >= 0 && w < n {
			windows[w]++
		}
	}
	return median(windows)
}

func okCount(recs []record) int {
	n := 0
	for i := range recs {
		if !recs[i].failed() {
			n++
		}
	}
	return n
}

// latencies returns per-operation latency in ms from the chosen origin; a
// failed operation is charged the call timeout, so it cannot flatter a
// percentile.
func latencies(recs []record, fromDue bool, keep func(*record) bool) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		if keep != nil && !keep(r) {
			continue
		}
		if r.failed() {
			out = append(out, float64(callTimeout)/float64(time.Millisecond))
			continue
		}
		from := r.start
		if fromDue {
			from = r.due
		}
		out = append(out, float64(r.end.Sub(from))/float64(time.Millisecond))
	}
	return out
}

// run executes one workload once and returns its metrics: the end-to-end set
// for an untraced run, the per-layer set for a traced one.
func (r *runner) run(cfg *runConfig) (*runResult, error) {
	res := &runResult{Correct: true, failures: map[string]int{}}
	s := &cfg.spec
	data := sut.Synth(s.tuples, s.dims, dataSeed)
	pool := queryPool(s.dims, dataSeed)
	e2e := newMetricSet(endToEnd)
	layer := newMetricSet(perLayer)

	scale := 1.0
	nSetups := setups
	if cfg.trace {
		scale, nSetups = plainShare, 1
	}
	phase := func(share float64) time.Duration {
		return time.Duration(cfg.seconds * scale * share * float64(time.Second))
	}

	// Set-up, several times over; the last fleet is the one measured.
	var lf *liveFleet
	var setupS []float64
	for i := 0; i < nSetups; i++ {
		if lf != nil {
			lf.stop()
		}
		var err error
		if lf, err = r.setUp(cfg, data, pool, false, "plain"); err != nil {
			return nil, err
		}
		setupS = append(setupS, lf.setup.Seconds())
	}
	defer func() { lf.stop() }()
	e2e.set("setup_s", median(setupS), len(setupS))
	lf.oracle.verify(lf.warmRec)
	res.tally(lf.warmRec)
	pids := lf.fleet.Pids()

	// Closed phase.
	fmt.Fprintf(cfg.log, "%s: closed phase %v\n", s.name, phase(closedShare))
	cpu0, err := fleetCPU(pids)
	if err != nil {
		return nil, err
	}
	self0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	closedStart := time.Now()
	closed := lf.gen.closed(phaseClosed, phase(closedShare), 0)
	closedDur := time.Since(closedStart)
	cpu1, err := fleetCPU(pids)
	if err != nil {
		return nil, err
	}
	self1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	rssSum, rssMax := 0.0, 0.0
	for _, pid := range pids {
		rss, err := procPeakRSS(pid)
		if err != nil {
			return nil, err
		}
		rssSum += rss
		rssMax = math.Max(rssMax, rss)
	}
	if err := lf.fleet.Err(); err != nil {
		return nil, err
	}
	lf.oracle.verify(closed)
	res.tally(closed)
	closedOK := okCount(closed)
	if closedOK == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the closed phase", s.name)
	}
	qps := windowedRate(closed, closedStart, closedDur)
	cpuPerOp := (cpu1 - cpu0) * 1e3 / float64(closedOK)
	e2e.set("qps", qps, closedOK)
	e2e.set("cpu_ms_per_op", cpuPerOp, closedOK)
	e2e.set("fleet_rss_mb", rssSum, len(pids))

	// Open phase: rate_mid, then the rate_hi step, back to back.
	fmt.Fprintf(cfg.log, "%s: open phase %v at %.0f/s, %v at %.0f/s\n", s.name, phase(midShare), s.rateMid, phase(hiShare), s.rateHi)
	stream := newOpStream(s, pool, cfg.seed, streamID(phaseOpen, 0), 2*maxInFlight)
	mid := lf.gen.open(stream, arrivals(cfg.seed, s.rateMid, phase(midShare)))
	hi := lf.gen.open(stream, arrivals(cfg.seed+1, s.rateHi, phase(hiShare)))
	if err := lf.fleet.Err(); err != nil {
		return nil, err
	}
	lf.oracle.verify(mid.records)
	lf.oracle.verify(hi.records)
	res.tally(mid.records)
	res.tally(hi.records)
	midLat := latencies(mid.records, true, nil)
	fmt.Fprintf(cfg.log, "%s: open phase at rate_mid: %d samples, p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms\n", s.name, len(midLat),
		pctOrZero(midLat, 0.50), pctOrZero(midLat, 0.90), pctOrZero(midLat, 0.95), pctOrZero(midLat, 0.99))
	if p50, err := percentile(midLat, 0.50); err == nil {
		e2e.set("lat_p50_ms", p50, len(midLat))
	}
	if p95, err := percentile(midLat, 0.95); err == nil {
		e2e.set("lat_p95_ms", p95, len(midLat))
	} else {
		res.notes = append(res.notes, "lat_p95_ms: "+err.Error())
	}

	// A workload of pool queries (zipf_rw) ends with a quiescent pass: every
	// one of them again, on every connection, against the final dataset, so a
	// stale cache entry is a counted failure.
	if scoped, ok := s.entry(opScopedTopK); ok {
		quiet := lf.gen.quiescent(scoped.k)
		lf.oracle.verify(quiet)
		res.tally(quiet)
	}

	if !cfg.trace {
		res.Metrics = e2e.values
		return res, missingErr(e2e)
	}

	// Client-side per-layer figures from the plain phases.
	all := append(append(append([]record(nil), closed...), mid.records...), hi.records...)
	clientMetrics(layer, s, closed, all, mid, hi)
	layer.set("netpeer.plan_ms", float64(lf.fleet.PlanDur)/1e6, 1)
	layer.set("netpeer.boot_ms", float64(lf.fleet.BootDur)/1e6, 1)
	layer.set("loadgen.warmup_ms", float64(lf.warm)/1e6, len(lf.warmRec))
	layer.set("loadgen.cpu_share", (self1-self0)/math.Max(self1-self0+cpu1-cpu0, 1e-9), 1)
	layer.set("runtime.rss_mb_max_peer", rssMax, len(pids))
	lf.stop()

	// Traced run: the same configs re-booted with -metrics-addr; one read in
	// ten asks for its hop tree, every peer is profiled and scraped.
	fmt.Fprintf(cfg.log, "%s: traced phase %v\n", s.name, time.Duration(cfg.seconds*(1-plainShare)*float64(time.Second)))
	tf, err := r.setUp(cfg, data, pool, true, "traced")
	if err != nil {
		return nil, err
	}
	defer tf.stop()
	tf.oracle.verify(tf.warmRec)
	res.tally(tf.warmRec)
	tracedLen := time.Duration(cfg.seconds * (1 - plainShare) * float64(time.Second))
	before, _, err := scrapeFleet(tf.fleet.Metrics)
	if err != nil {
		return nil, err
	}
	profiles := startProfiles(tf.fleet.Metrics, tracedLen-500*time.Millisecond)
	tf.gen.tracedEvery = tracedEvery
	tracedStart := time.Now()
	traced := tf.gen.closed(phaseTraced, tracedLen, 0)
	tracedDur := time.Since(tracedStart)
	after, scrapeMS, err := scrapeFleet(tf.fleet.Metrics)
	if err != nil {
		return nil, err
	}
	samples, err := profiles.wait()
	if err != nil {
		return nil, err
	}
	if err := tf.fleet.Err(); err != nil {
		return nil, err
	}
	tf.oracle.verify(traced)
	res.tally(traced)
	tf.stop()
	tracedOK := okCount(traced)
	if tracedOK == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the traced phase", s.name)
	}
	layer.set("trace.overhead_ratio", windowedRate(traced, tracedStart, tracedDur)/qps, tracedOK)
	layer.set("metrics.scrape_ms", scrapeMS, len(tf.fleet.Metrics))
	serverMetrics(layer, before, after, traced, cpuShares(samples), len(samples))

	// Layer probes, in this process, after the fleet is gone.
	spans := newSpanLog()
	counts, err := sut.RunProbes(spans, probeInput(cfg, lf.gen, data, pool))
	if err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(cfg.outDir, s.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	probeMetrics(layer, selfByName(spans.spans), counts)
	res.budget = cpuBudget(layer, s, closed, cpuPerOp)
	layer.set("netpeer.residual_us_per_op", res.budget["netpeer.residual_us_per_op"], closedOK)

	// On static-r workloads a traced query's hop tree has one span per peer
	// the logical engine reaches; anything else means the live fleet and the
	// paper's counts have parted ways. (Scoped reads cannot be traced.)
	if _, scoped := s.entry(opScopedTopK); s.r >= 0 && !scoped {
		got, want := layer.values["trace.spans_per_op"].Value, layer.values["core.peers_per_op"].Value
		if math.Abs(got-want) > 0.15*want {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("trace.spans_per_op %.3f differs from core.peers_per_op %.3f", got, want))
		}
	}
	res.Metrics = layer.values
	return res, missingErr(layer)
}

func missingErr(m *metricSet) error {
	if miss := m.missing(); len(miss) > 0 {
		return fmt.Errorf("metrics not measured: %v", miss)
	}
	return nil
}

// quiescent re-issues every pool query on every connection, one at a time.
func (g *loadgen) quiescent(k int) []record {
	var recs []record
	for _, c := range g.clients {
		for i := range g.pool {
			r := record{op: op{Kind: opScopedTopK, K: k, Box: i}, sampled: true}
			g.do(c, &r)
			recs = append(recs, r)
		}
	}
	return recs
}

// pctOrZero is a percentile for the per-layer list, where a phase too short
// to support it reports 0 rather than failing the run.
func pctOrZero(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// clientMetrics fills the per-layer figures the loadgen itself observes.
func clientMetrics(m *metricSet, s *spec, closed, all []record, mid, hi openResult) {
	isWrite := func(r *record) bool { return r.op.Kind.isWrite() }
	writes := latencies(all, false, isWrite)
	m.set("netpeer.write_p50_ms", pctOrZero(writes, 0.50), len(writes))
	m.set("netpeer.write_p99_ms", pctOrZero(writes, 0.99), len(writes))
	acks, nw := 0, 0
	reads, hits := 0, 0
	modes := map[string]int{}
	for i := range all {
		r := &all[i]
		if r.failed() {
			continue
		}
		if r.op.Kind.isWrite() {
			acks += r.acks
			nw++
			continue
		}
		reads++
		if r.cacheHit {
			hits++
		}
		planR := r.planR
		if !s.planAuto {
			planR = s.r
		}
		modes[sut.ModeOf(planR)]++
	}
	m.set("netpeer.acks_per_write", ratio(float64(acks), float64(nw)), nw)
	m.set("cache.hit_ratio", ratio(float64(hits), float64(reads)), reads)
	for _, mode := range []string{"fast", "ripple", "slow"} {
		m.set("plan.mode_"+mode+"_ratio", ratio(float64(modes[mode]), float64(reads)), reads)
	}
	for _, fam := range []string{sut.TopK, sut.KNN, sut.Skyline} {
		lat := latencies(closed, false, func(r *record) bool { return r.op.Kind.family() == fam })
		m.set(fam+".lat_p50_ms", pctOrZero(lat, 0.50), len(lat))
	}

	open := append(append([]record(nil), mid.records...), hi.records...)
	var late []float64
	for i := range open {
		late = append(late, float64(open[i].start.Sub(open[i].due))/float64(time.Millisecond))
	}
	m.set("loadgen.late_p99_ms", pctOrZero(late, 0.99), len(late))
	midLat := latencies(mid.records, true, nil)
	m.set("loadgen.samples", float64(len(midLat)), len(midLat))
	m.set("loadgen.lat_p99_ms", pctOrZero(midLat, 0.99), len(midLat))
	hiLat := latencies(hi.records, true, nil)
	m.set("loadgen.hi_lat_p99_ms", pctOrZero(hiLat, 0.99), len(hiLat))
	m.set("loadgen.hi_backlog_end", float64(hi.backlogEnd), 1)
	failed := 0
	for i := range all {
		if all[i].failed() {
			failed++
		}
	}
	m.set("loadgen.fail_ratio", ratio(float64(failed), float64(len(all))), len(all))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrapeFleet fetches /metrics from every peer and sums the series; it also
// reports the median time one scrape took, in ms.
func scrapeFleet(addrs []string) (promSample, float64, error) {
	total := promSample{}
	var took []float64
	for _, a := range addrs {
		start := time.Now()
		resp, err := http.Get("http://" + a + "/metrics")
		if err != nil {
			return nil, 0, err
		}
		s, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		took = append(took, float64(time.Since(start))/1e6)
		total.add(s)
	}
	return total, median(took), nil
}

// profileFetch is the CPU profiles of every peer, in flight.
type profileFetch struct {
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []stackSample
	err     error
}

// startProfiles asks every peer for a CPU profile of the given length.
func startProfiles(addrs []string, length time.Duration) *profileFetch {
	pf := &profileFetch{}
	secs := int(math.Max(1, math.Floor(length.Seconds())))
	client := &http.Client{Timeout: time.Duration(secs+20) * time.Second}
	for _, a := range addrs {
		pf.wg.Add(1)
		go func(a string) {
			defer pf.wg.Done()
			samples, err := fetchProfile(client, fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", a, secs))
			pf.mu.Lock()
			defer pf.mu.Unlock()
			if err != nil && pf.err == nil {
				pf.err = err
			}
			pf.samples = append(pf.samples, samples...)
		}(a)
	}
	return pf
}

func fetchProfile(client *http.Client, url string) ([]stackSample, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile: %s: %s", resp.Status, body)
	}
	return parseProfile(body)
}

func (pf *profileFetch) wait() ([]stackSample, error) {
	pf.wg.Wait()
	return pf.samples, pf.err
}

// serverMetrics fills the per-layer figures scraped from the peers during
// the traced phase.
func serverMetrics(m *metricSet, before, after promSample, traced []record, shares map[string]float64, nSamples int) {
	ops := float64(okCount(traced))
	d := func(k string) float64 { return promDelta(before, after, k) }
	m.set("netpeer.queue_wait_us", histMean(before, after, "ripple_netpeer_queue_wait_seconds")*1e6, int(d("ripple_netpeer_queue_wait_seconds_count")))
	m.set("netpeer.rpc_attempt_ms", histMean(before, after, "ripple_netpeer_rpc_seconds")*1e3, int(d("ripple_netpeer_rpc_seconds_count")))
	m.set("netpeer.fanout_mean", histMean(before, after, "ripple_netpeer_fanout"), int(d("ripple_netpeer_fanout_count")))
	m.set("netpeer.streams_per_op", d("ripple_netpeer_mux_streams_total")/ops, int(ops))
	m.set("netpeer.retries_per_op", d("ripple_netpeer_retries_total")/ops, int(ops))
	m.set("netpeer.overload_rejections", d("ripple_netpeer_overload_rejections_total"), 1)
	m.set("netpeer.lost_links", d("ripple_netpeer_lost_links_total"), 1)
	m.set("netpeer.dials", d("ripple_netpeer_dials_total"), 1)
	m.set("storage.index_nodes", after["ripple_storage_index_nodes"], 1)
	writes := 0
	for i := range traced {
		if traced[i].op.Kind.isWrite() && !traced[i].failed() {
			writes++
		}
	}
	m.set("cache.invalidations_per_write", ratio(d("ripple_cache_invalidations_total"), float64(writes)), writes)
	m.set("cache.evictions", d("ripple_cache_evictions_total"), 1)
	m.set("cache.bytes", after["ripple_cache_bytes"], 1)
	m.set("plan.explorations", d("ripple_plan_explorations_total"), 1)
	for _, l := range []string{"wire", "netpeer", "storage", "cache"} {
		m.set(l+".cpu_share", shares[l], nSamples)
	}
	m.set("runtime.gc_cpu_share", shares["runtime.gc"], nSamples)
	m.set("runtime.sched_cpu_share", shares["runtime.sched"], nSamples)

	var spans, depth []float64
	for i := range traced {
		if traced[i].traced && !traced[i].failed() {
			spans = append(spans, float64(traced[i].spans))
			depth = append(depth, float64(traced[i].depth))
		}
	}
	m.set("trace.spans_per_op", mean(spans), len(spans))
	m.set("trace.depth_mean", mean(depth), len(depth))
}

// probeInput regenerates the first reads of the closed phase's first stream,
// for the layer probes to replay.
func probeInput(cfg *runConfig, g *loadgen, data []sut.Tuple, pool []poolQuery) sut.ProbeInput {
	in := sut.ProbeInput{Data: data, Peers: cfg.spec.peers, PlanSeed: dataSeed, Initiators: g.initiators,
		CacheBytes: cfg.spec.cacheBytes, ServeArgs: cfg.serveArgs}
	stream := newOpStream(&cfg.spec, pool, cfg.seed, streamID(phaseClosed, 0), 1)
	for len(in.Queries) < probeQueries {
		o := stream.next()
		if o.Kind == opInsert {
			in.Inserts = append(in.Inserts, o.Tuple)
		}
		if !o.Kind.isWrite() {
			in.Queries = append(in.Queries, o.query(&cfg.spec, pool))
		}
	}
	return in
}

// probeMetrics turns probe spans into per-layer figures: each is the median
// self time of the spans with that layer and name.
func probeMetrics(m *metricSet, self map[string][]float64, c *sut.ProbeCounts) {
	us := func(metric, key string) { m.set(metric, median(self[key]), len(self[key])) }
	ms := func(metric, key string) { m.set(metric, median(self[key])/1e3, len(self[key])) }
	us("wire.call_encode_us", "wire.call_encode")
	us("wire.call_decode_us", "wire.call_decode")
	us("wire.reply_encode_us", "wire.reply_encode")
	us("wire.reply_decode_us", "wire.reply_decode")
	m.set("wire.call_bytes", float64(c.CallBytes), 1)
	m.set("wire.reply_bytes", float64(c.ReplyBytes), 1)
	m.set("wire.roundtrip_allocs", float64(c.RoundtripAllocs), 1)
	us("netpeer.rpc_us", "netpeer.rpc")
	m.set("netpeer.rpc_allocs", float64(c.RPCAllocs), 1)
	ms("storage.build_ms", "storage.build")
	us("storage.local_us", "storage.local")
	us("storage.rebuild_us", "storage.rebuild")
	m.set("storage.index_height", float64(c.IndexHeight), 1)
	us("cache.lookup_us", "cache.lookup")
	us("cache.fill_us", "cache.fill")
	us("cache.invalidate_us", "cache.invalidate")
	us("plan.choose_us", "plan.choose")
	us("plan.observe_us", "plan.observe")
	us("core.run_us", "core.run")
	ms("midas.build_ms", "midas.build")
	for _, fam := range []string{sut.TopK, sut.KNN, sut.Skyline} {
		us(fam+".construct_us", fam+".construct")
		us(fam+".state_codec_us", fam+".state_codec")
		us(fam+".merge_us", fam+".merge")
	}
	var q, hops, msgs, peers, tuples int
	for _, fc := range c.Family {
		q += fc.Queries
		hops += fc.Hops
		msgs += fc.Msgs
		peers += fc.Peers
		tuples += fc.TuplesSent
	}
	m.set("core.hops_per_op", ratio(float64(hops), float64(q)), q)
	m.set("core.msgs_per_op", ratio(float64(msgs), float64(q)), q)
	m.set("core.peers_per_op", ratio(float64(peers), float64(q)), q)
	m.set("core.tuples_sent_per_op", ratio(float64(tuples), float64(q)), q)
}

// cpuBudget is the workload's CPU budget row, in microseconds per operation.
// The named layers' shares come from the probes and the paper's counts; what
// they do not explain of the measured cpu_ms_per_op — syscalls, scheduler,
// GC, mux, queueing, and on zipf_rw the write path — is the residual, printed
// rather than hidden. Reads served from the cache skip the propagation terms.
func cpuBudget(m *metricSet, s *spec, closed []record, cpuMsPerOp float64) map[string]float64 {
	v := func(name string) float64 { return m.values[name].Value }
	reads, ops := 0.0, 0.0
	famReads := map[string]float64{}
	for i := range closed {
		if closed[i].failed() {
			continue
		}
		ops++
		if fam := closed[i].op.Kind.family(); fam != "" {
			reads++
			famReads[fam]++
		}
	}
	miss := (1 - v("cache.hit_ratio")) * reads / ops // share of operations that propagate
	perVisit := v("storage.local_us")
	for fam, n := range famReads {
		perVisit += n / reads * (v(fam+".construct_us") + v(fam+".state_codec_us"))
	}
	b := map[string]float64{
		"cpu_us_per_op": cpuMsPerOp * 1e3,
		"visits_us":     miss * v("core.peers_per_op") * perVisit,
		"wire_us": miss * v("core.msgs_per_op") * (v("wire.call_encode_us") + v("wire.call_decode_us") +
			v("wire.reply_encode_us") + v("wire.reply_decode_us")),
		"cache_us": v("cache.lookup_us") * reads / ops,
		"plan_us":  v("plan.choose_us") * reads / ops,
	}
	if s.cacheBytes == 0 {
		b["cache_us"] = 0
	}
	if !s.planAuto {
		b["plan_us"] = 0
	}
	b["netpeer.residual_us_per_op"] = b["cpu_us_per_op"] - b["visits_us"] - b["wire_us"] - b["cache_us"] - b["plan_us"]
	return b
}
