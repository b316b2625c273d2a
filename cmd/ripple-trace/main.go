// Command ripple-trace runs one traced rank query over a simulated overlay
// and renders its hop tree: every link traversal as a span, annotated with
// the restriction region, mode phase, hop clock and fault outcome, with
// per-subtree rollups at the branch points. The same query can be executed
// on either runtime — the structural engine or a real TCP deployment on
// loopback — which produce structurally identical trees, so the flag doubles
// as a live cross-runtime check.
//
//	ripple-trace -peers 32 -r 2                        # engine runtime
//	ripple-trace -peers 32 -r 2 -runtime tcp           # same tree over TCP
//	ripple-trace -peers 64 -fault-drop 0.1 -r slow     # see lost subtrees
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/skyline"
	"ripple/internal/topk"
)

func main() {
	peers := flag.Int("peers", 32, "overlay size")
	dims := flag.Int("dims", 3, "data dimensionality")
	size := flag.Int("size", 2000, "number of tuples")
	seed := flag.Int64("seed", 1, "overlay and data seed")
	queryKind := flag.String("query", "topk", "query type: topk | skyline")
	k := flag.Int("k", 10, "result size for topk")
	rFlag := flag.String("r", "fast", "ripple parameter: fast | slow | integer")
	runtime := flag.String("runtime", "engine", "execution runtime: engine | tcp")
	initiator := flag.Int("initiator", 0, "index of the initiating peer")
	faultDrop := flag.Float64("fault-drop", 0, "injected per-link drop probability")
	faultCrash := flag.Float64("fault-crash", 0, "injected per-link crash probability")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection seed")
	flag.Parse()

	if *initiator < 0 {
		fatal(fmt.Errorf("-initiator must be non-negative, got %d", *initiator))
	}
	r := parseR(*rFlag)
	net := midas.Build(*peers, midas.Options{Dims: *dims, Seed: *seed})
	overlay.Load(net, dataset.Uniform(*size, *dims, *seed))
	init := net.Peers()[*initiator%net.Size()]

	var inj *faults.Injector
	if *faultDrop > 0 || *faultCrash > 0 {
		inj = faults.New(faults.Config{Seed: *faultSeed, DropRate: *faultDrop, CrashRate: *faultCrash})
	}

	var proc core.Processor
	switch *queryKind {
	case "topk":
		proc = &topk.Processor{F: topk.UniformLinear(*dims), K: *k}
	case "skyline":
		proc = &skyline.Processor{}
	default:
		fatal(fmt.Errorf("unknown query type %q", *queryKind))
	}

	var res *core.Result
	switch *runtime {
	case "engine":
		res = core.RunOpts(init, proc, r, core.Options{Faults: inj, Trace: true})
	case "tcp":
		res = runTCP(net, init.ID(), *queryKind, proc, *dims, *k, r, inj)
	default:
		fatal(fmt.Errorf("unknown runtime %q (engine | tcp)", *runtime))
	}

	if res.Trace == nil || res.Trace.Root == nil {
		fatal(fmt.Errorf("query produced no trace"))
	}
	fmt.Printf("%s query, r=%s, runtime=%s, %d peers\n\n", *queryKind, *rFlag, *runtime, *peers)
	res.Trace.Render(os.Stdout)
	roll := res.Trace.Root.Rollup()
	fmt.Printf("\n%d spans, depth %d, %d state / %d answer tuples, %d lost subtree(s)\n",
		roll.Spans, roll.MaxDepth, roll.StateTuples, roll.AnswerTuples, roll.Lost)
	fmt.Printf("cost: %v\n", &res.Stats)
	if res.Partial() {
		fmt.Printf("answer is PARTIAL: %d region(s) lost\n", len(res.FailedRegions))
	}
}

// runTCP deploys the overlay as loopback TCP servers and issues the traced
// query for real. Retries are disabled when faults are armed so the tree
// shows exactly the engine's losses instead of recovering them.
func runTCP(net overlay.Network, initID, queryKind string, proc core.Processor, dims, k, r int, inj *faults.Injector) *core.Result {
	opts := netpeer.Options{
		Faults: inj,
		Logf:   func(string, ...interface{}) {},
	}
	if inj.Enabled() {
		opts.Retry = netpeer.RetryPolicy{MaxRetries: 0, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}
	}
	servers, addrs, err := netpeer.DeployOpts(net, opts, topk.WireCodec{}, skyline.WireCodec{})
	if err != nil {
		fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	var params []byte
	if queryKind == "topk" {
		params, err = (topk.WireCodec{}).EncodeParams(proc.(*topk.Processor).F, k)
		if err != nil {
			fatal(err)
		}
	}
	qres, err := netpeer.QueryTraced(addrs[initID], queryKind, params, dims, r, 0)
	if err != nil {
		fatal(err)
	}
	return &core.Result{
		Answers:       qres.Answers,
		Stats:         qres.Stats,
		FailedRegions: qres.FailedRegions,
		Trace:         qres.Trace,
	}
}

func parseR(s string) int {
	switch s {
	case "fast":
		return 0
	case "slow":
		return 1 << 20
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		fatal(fmt.Errorf("bad -r value %q", s))
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ripple-trace:", err)
	os.Exit(1)
}
