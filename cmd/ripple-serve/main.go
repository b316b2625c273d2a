// Command ripple-serve runs one RIPPLE peer as a standalone process (serving
// the wire protocol on TCP with the built-in query codecs), or acts as a
// client issuing a query against a running deployment.
//
//	ripple-serve -config deploy/peer-000.json        # run one peer
//	ripple-serve -config deploy/peer-000.json -storage rtree
//	ripple-serve -config deploy/peer-000.json -cache-size 8388608 -cache-ttl 30s
//	ripple-serve -call 127.0.0.1:7400 -query topk -k 5 -r slow
//	ripple-serve -call 127.0.0.1:7400 -query skyline
//	ripple-serve -call 127.0.0.1:7400 -query knn -k 3 -at 0.2,0.8
//	ripple-serve -call 127.0.0.1:7400 -query insert -id 99 -at 0.4,0.6
//	ripple-serve -call 127.0.0.1:7400 -query delete -id 99 -at 0.4,0.6
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/faults"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/metrics"
	"ripple/internal/netpeer"
	"ripple/internal/plan"
	"ripple/internal/skyline"
	"ripple/internal/storage"
	"ripple/internal/topk"
)

func main() {
	def := netpeer.DefaultOptions()
	config := flag.String("config", "", "peer config written by ripple-plan (server mode)")
	call := flag.String("call", "", "peer address to query (client mode)")
	queryKind := flag.String("query", "topk", "client request: topk | skyline | knn | insert | delete")
	k := flag.Int("k", 10, "result size for topk and knn")
	at := flag.String("at", "", "knn query point as comma-separated coordinates (default: domain center)")
	metricName := flag.String("metric", "L2", "knn distance metric: L1 | L2")
	dims := flag.Int("dims", 0, "data dimensionality (client mode; read from answers if 0)")
	rFlag := flag.String("r", "fast", "ripple parameter: fast | slow | integer")
	callTimeout := flag.Duration("call-timeout", def.CallTimeout, "end-to-end deadline per peer RPC (and for the client call)")
	dialTimeout := flag.Duration("dial-timeout", def.DialTimeout, "server mode: TCP connect deadline per peer dial")
	retries := flag.Int("retries", def.Retry.MaxRetries, "server mode: retransmissions per failed peer RPC")
	recoveryBudget := flag.Duration("recovery-budget", def.RecoveryBudget, "server mode: wall-clock cap on replica failovers per processed call (replicated deployments)")
	maxConcurrent := flag.Int("max-concurrent-calls", def.MaxConcurrentCalls, "server mode: calls processed at once per multiplexed connection")
	maxQueue := flag.Int("max-call-queue", def.MaxCallQueue, "server mode: admitted calls that may wait for a worker before admission control rejects")
	disableMux := flag.Bool("disable-mux", false, "server mode: refuse stream multiplexing and serve the sequential one-call-per-connection protocol")
	faultDrop := flag.Float64("fault-drop", 0, "server mode: injected per-RPC drop probability (testing)")
	faultCrash := flag.Float64("fault-crash", 0, "server mode: injected perform-then-lose-reply probability (testing)")
	faultDelayRate := flag.Float64("fault-delay-rate", 0, "server mode: injected per-RPC delay probability (testing)")
	faultDelay := flag.Duration("fault-delay", 50*time.Millisecond, "server mode: duration of an injected delay")
	faultSeed := flag.Int64("fault-seed", 1, "server mode: fault-injection seed (decisions are deterministic per link)")
	metricsAddr := flag.String("metrics-addr", "", "server mode: serve Prometheus /metrics and /debug/pprof on this address")
	storageFlag := flag.String("storage", "", "server mode: peer-local storage engine: scan | rtree (default: $RIPPLE_STORAGE, then scan)")
	cacheSize := flag.Int64("cache-size", 0, "server mode: result-cache budget in bytes (0 disables caching)")
	cacheTTL := flag.Duration("cache-ttl", 0, "server mode: result-cache entry lifetime (0 uses the cache default)")
	tupleID := flag.Uint64("id", 0, "client mode: tuple id for -query insert | delete")
	planMode := flag.String("plan", "static", "server mode: auto resolves r=auto queries with the adaptive planner; client mode: auto sends r=auto (overrides -r)")
	flag.Parse()

	switch *planMode {
	case "auto", "static":
	default:
		fatal(fmt.Errorf("bad -plan %q (want auto or static)", *planMode))
	}

	opts := def
	if *storageFlag != "" {
		kind, err := storage.ParseKind(*storageFlag)
		if err != nil {
			fatal(err)
		}
		opts.Storage = kind
	}
	opts.CallTimeout = *callTimeout
	opts.DialTimeout = *dialTimeout
	opts.Retry.MaxRetries = *retries
	opts.RecoveryBudget = *recoveryBudget
	opts.MaxConcurrentCalls = *maxConcurrent
	opts.MaxCallQueue = *maxQueue
	opts.DisableMux = *disableMux
	opts.CacheSize = *cacheSize
	opts.CacheTTL = *cacheTTL
	if *faultDrop > 0 || *faultCrash > 0 || *faultDelayRate > 0 {
		opts.Faults = faults.New(faults.Config{
			Seed:      *faultSeed,
			DropRate:  *faultDrop,
			CrashRate: *faultCrash,
			DelayRate: *faultDelayRate,
			Delay:     *faultDelay,
		})
	}

	switch {
	case *config != "":
		serve(*config, opts, *metricsAddr, *planMode == "auto")
	case *call != "":
		r := parseR(*rFlag)
		if *planMode == "auto" {
			r = plan.RAuto
		}
		client(*call, *queryKind, *k, *dims, r, *callTimeout, *at, *metricName, *tupleID)
	default:
		fmt.Fprintln(os.Stderr, "need -config (server) or -call (client); see -help")
		os.Exit(2)
	}
}

func serve(path string, opts netpeer.Options, metricsAddr string, planAuto bool) {
	fc, err := netpeer.ReadConfigFile(path)
	if err != nil {
		fatal(err)
	}
	if metricsAddr != "" {
		opts.Metrics = metrics.New()
		msrv, errc := opts.Metrics.Serve(metricsAddr)
		defer msrv.Close()
		go func() {
			if err := <-errc; err != nil {
				fmt.Fprintln(os.Stderr, "ripple-serve: metrics endpoint:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics, profiles on http://%s/debug/pprof/\n",
			metricsAddr, metricsAddr)
	}
	if planAuto {
		opts.Planner = plan.New(plan.Options{Metrics: opts.Metrics})
	}
	srv := netpeer.NewServerOpts(fc.Peer, opts, topk.WireCodec{}, skyline.WireCodec{}, diversify.WireCodec{}, knn.WireCodec{})
	if opts.Faults.Enabled() {
		fmt.Printf("fault injection armed: %+v\n", opts.Faults.Config())
	}
	addr, err := srv.Start(fc.Addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("peer %s serving on %s (%d tuples, %d links, %d replica shares)\n",
		fc.Peer.ID, addr, len(fc.Peer.Tuples), len(fc.Peer.Links), len(fc.Peer.Replicas))
	st := srv.StorageStats()
	fmt.Printf("peer %s storage: engine=%s tuples=%d index_nodes=%d index_height=%d\n",
		fc.Peer.ID, st.Kind, st.Len, st.Nodes, st.Height)
	if planAuto {
		fmt.Printf("peer %s adaptive planner armed: r=auto root queries resolve per query\n", fc.Peer.ID)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	fmt.Printf("peer %s stopped\n", fc.Peer.ID)
}

func client(addr, queryKind string, k, dims, r int, timeout time.Duration, at, metricName string, tupleID uint64) {
	if dims <= 0 {
		dims = probeDims(addr, timeout)
	}
	switch queryKind {
	case "insert", "delete":
		t := dataset.Tuple{ID: tupleID, Vec: parsePoint(at, dims)}
		mutate := netpeer.Insert
		if queryKind == "delete" {
			mutate = netpeer.Delete
		}
		acks, err := mutate(addr, t, timeout)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s %v: applied at %d peer(s)\n", queryKind, t, acks)
		return
	}
	switch queryKind {
	case "topk":
		f := topk.UniformLinear(dims)
		params, err := (topk.WireCodec{}).EncodeParams(f, k)
		if err != nil {
			fatal(err)
		}
		res, err := netpeer.QueryDetailed(addr, "topk", params, dims, r, timeout)
		if err != nil {
			fatal(err)
		}
		for i, t := range topk.Select(res.Answers, f, k) {
			fmt.Printf("%3d. %v  score %.4f\n", i+1, t, f.Score(t.Vec))
		}
		report(res)
	case "skyline":
		res, err := netpeer.QueryDetailed(addr, "skyline", nil, dims, r, timeout)
		if err != nil {
			fatal(err)
		}
		for i, t := range skyline.Compute(res.Answers) {
			fmt.Printf("%3d. %v\n", i+1, t)
		}
		report(res)
	case "knn":
		center := parsePoint(at, dims)
		m := parseMetric(metricName)
		params, err := (knn.WireCodec{}).EncodeParams(center, k, m)
		if err != nil {
			fatal(err)
		}
		res, err := netpeer.QueryDetailed(addr, "knn", params, dims, r, timeout)
		if err != nil {
			fatal(err)
		}
		for i, t := range knn.Select(res.Answers, center, k, m) {
			fmt.Printf("%3d. %v  dist %.4f\n", i+1, t, m.Dist(center, t.Vec))
		}
		report(res)
	default:
		fatal(fmt.Errorf("client mode supports topk, skyline, knn, insert and delete, not %q", queryKind))
	}
}

// parsePoint reads a comma-separated coordinate list, defaulting to the
// center of the unit domain.
func parsePoint(s string, dims int) geom.Point {
	p := make(geom.Point, dims)
	if s == "" {
		for i := range p {
			p[i] = 0.5
		}
		return p
	}
	parts := strings.Split(s, ",")
	if len(parts) != dims {
		fatal(fmt.Errorf("-at has %d coordinates, data is %d-dimensional", len(parts), dims))
	}
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad -at coordinate %q", part))
		}
		p[i] = v
	}
	return p
}

func parseMetric(name string) geom.Metric {
	switch name {
	case "L1":
		return geom.L1
	case "L2", "":
		return geom.L2
	}
	fatal(fmt.Errorf("bad -metric %q (want L1 or L2)", name))
	return nil
}

// report prints the query cost and, for a degraded answer, which parts of the
// data space went unanswered.
func report(res *netpeer.QueryResult) {
	if res.Plan != "" {
		fmt.Printf("plan: %s (r=%d)\n", res.Plan, res.PlanR)
	}
	fmt.Printf("cost: %v\n", &res.Stats)
	if !res.Partial() {
		return
	}
	fmt.Fprintf(os.Stderr, "WARNING: answer is PARTIAL — %d region(s) of the data space were lost to peer failures:\n",
		len(res.FailedRegions))
	for _, reg := range res.FailedRegions {
		fmt.Fprintf(os.Stderr, "  lost %v\n", reg)
	}
}

// probeDims discovers the data dimensionality by asking for one answer, each
// probe bounded by the client's call timeout.
func probeDims(addr string, timeout time.Duration) int {
	for d := 1; d <= 16; d++ {
		params, err := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(d), 1)
		if err != nil {
			continue
		}
		res, err := netpeer.QueryDetailed(addr, "topk", params, d, 0, timeout)
		if err == nil && len(res.Answers) > 0 && len(res.Answers[0].Vec) == d {
			return d
		}
	}
	fatal(fmt.Errorf("could not determine dimensionality; pass -dims"))
	return 0
}

func parseR(s string) int {
	switch s {
	case "fast":
		return 0
	case "slow":
		return 1 << 20
	case "auto":
		return plan.RAuto
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		fatal(fmt.Errorf("bad -r %q", s))
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ripple-serve:", err)
	os.Exit(1)
}
