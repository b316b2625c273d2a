// Cross-engine storage equivalence: the scan baseline and the R-tree engine
// must be observationally indistinguishable. For seeded random overlays,
// every query family (top-k, skyline, diversification, kNN), every ripple
// setting and both runtimes (structural engine, TCP deployment), the two
// engines must return byte-identical replies, identical
// cost accounting, and identical canonical hop trees — and under replication
// with injected faults they must recover the very same subtrees. This is the
// property that makes `-storage=rtree` safe to flip on in production: it can
// only change how fast local steps run, never what they compute.
package ripple_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/faults"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/skyline"
	"ripple/internal/storage"
	"ripple/internal/topk"
	"ripple/internal/trace"
)

// storageNet grows a seeded random overlay whose peers build R-tree stores
// over their zone shares; the scan arm of each comparison hides those stores
// behind the engine-level lens (core.Options / netpeer.Options with
// Storage = KindScan).
func storageNet(seed int64) *midas.Network {
	n := midas.Build(24, midas.Options{Dims: 3, Seed: seed, Storage: storage.KindRTree})
	overlay.Load(n, dataset.Uniform(900, 3, seed+100))
	return n
}

// storageCase is one query family: its processor for the structural engine
// and its encoded wire form for the TCP runtime.
type storageCase struct {
	name   string
	proc   core.Processor
	params []byte
}

func storageCases(t *testing.T) []storageCase {
	t.Helper()
	center := geom.Point{0.4, 0.6, 0.3}
	topkParams, err := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	skyParams, err := (skyline.WireCodec{}).EncodeParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	divQ := diversify.NewQuery(center, 0.5)
	divParams, err := (diversify.WireCodec{}).EncodeParams(divQ, nil, nil, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	knnParams, err := (knn.WireCodec{}).EncodeParams(center, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []storageCase{
		{"topk", &topk.Processor{F: topk.UniformLinear(3), K: 5}, topkParams},
		{"skyline", &skyline.Processor{}, skyParams},
		{"diversify", &diversify.Processor{Query: divQ, Tau0: math.Inf(1)}, divParams},
		{"knn", &knn.Processor{Center: center, K: 5}, knnParams},
	}
}

// tcpStorage runs one traced query over a loopback deployment pinned to the
// given storage engine and replication factor. Under faults the per-link
// retry loop is disabled so the TCP runtime loses (and recovers) exactly the
// traversals the structural engine does.
func tcpStorage(t *testing.T, n *midas.Network, initID, qtype string, params []byte, r int, kind storage.Kind, factor int, inj *faults.Injector) *netpeer.QueryResult {
	t.Helper()
	opts := netpeer.Options{Logf: func(string, ...interface{}) {}, Storage: kind, Replication: factor, Faults: inj}
	if inj.Enabled() {
		opts.Retry = netpeer.RetryPolicy{MaxRetries: 0, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}
	}
	servers, addrs, err := netpeer.DeployOpts(n, opts,
		topk.WireCodec{}, skyline.WireCodec{}, diversify.WireCodec{}, knn.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	res, err := netpeer.QueryTraced(addrs[initID], qtype, params, 3, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStorageEngineEquivalenceAcrossRuntimes: unreplicated (R=1) seeded
// overlays; for each query family and ripple setting, scan and rtree arms of
// both runtimes must agree byte for byte, and the TCP canonical trees must
// match the engine's.
func TestStorageEngineEquivalenceAcrossRuntimes(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		n := storageNet(seed)
		init := n.Peers()[5]
		for _, tc := range storageCases(t) {
			for _, r := range []int{0, 2, 1 << 20} {
				engScan := core.RunOpts(init, tc.proc, r, core.Options{Trace: true, Storage: storage.KindScan})
				engRTree := core.RunOpts(init, tc.proc, r, core.Options{Trace: true, Storage: storage.KindRTree})
				if !reflect.DeepEqual(engRTree.Answers, engScan.Answers) {
					t.Fatalf("seed %d %s r=%d: engine answers differ between engines", seed, tc.name, r)
				}
				if engRTree.Stats.String() != engScan.Stats.String() {
					t.Fatalf("seed %d %s r=%d: engine costs differ:\nscan:  %s\nrtree: %s",
						seed, tc.name, r, engScan.Stats.String(), engRTree.Stats.String())
				}
				want := engScan.Trace.Canonical()
				if got := engRTree.Trace.Canonical(); got != want {
					t.Fatalf("seed %d %s r=%d: engine hop trees differ:\nscan:  %s\nrtree: %s", seed, tc.name, r, want, got)
				}

				tcpScan := tcpStorage(t, n, init.ID(), tc.name, tc.params, r, storage.KindScan, 1, nil)
				tcpRTree := tcpStorage(t, n, init.ID(), tc.name, tc.params, r, storage.KindRTree, 1, nil)
				if !reflect.DeepEqual(tcpRTree.Answers, tcpScan.Answers) {
					t.Fatalf("seed %d %s r=%d: tcp answers differ between engines", seed, tc.name, r)
				}
				if !reflect.DeepEqual(sortedAnswerIDs(tcpScan.Answers), sortedAnswerIDs(engScan.Answers)) {
					t.Fatalf("seed %d %s r=%d: tcp answers differ from engine", seed, tc.name, r)
				}
				for arm, tr := range map[string]*trace.Tree{"scan": tcpScan.Trace, "rtree": tcpRTree.Trace} {
					if got := tr.Canonical(); got != want {
						t.Fatalf("seed %d %s r=%d: tcp/%s hop tree differs from engine:\nengine: %s\ntcp:    %s",
							seed, tc.name, r, arm, want, got)
					}
				}
			}
		}
	}
}

// TestStorageEngineEquivalenceUnderRecovery: R=2 with injected link faults —
// replica failover must recover the same subtrees and leave the same residual
// failed regions no matter which engine serves the shares (replica shares are
// indexed too, so this exercises the R-tree on the failover path).
func TestStorageEngineEquivalenceUnderRecovery(t *testing.T) {
	n := storageNet(3)
	init := n.Peers()[5]
	inj := faults.New(faults.Config{Seed: 3, DropRate: 0.25})
	rm := overlay.BuildReplicas(n, 2)
	proc := &knn.Processor{Center: geom.Point{0.4, 0.6, 0.3}, K: 5}
	params, err := (knn.WireCodec{}).EncodeParams(proc.Center, proc.K, nil)
	if err != nil {
		t.Fatal(err)
	}

	recovered := 0
	for _, r := range []int{0, 1 << 20} {
		engScan := core.RunOpts(init, proc, r, core.Options{Trace: true, Faults: inj, Replicas: rm, Storage: storage.KindScan})
		engRTree := core.RunOpts(init, proc, r, core.Options{Trace: true, Faults: inj, Replicas: rm, Storage: storage.KindRTree})
		recovered += engScan.Stats.Recovered
		if !reflect.DeepEqual(engRTree.Answers, engScan.Answers) {
			t.Fatalf("r=%d: recovered answers differ between engines", r)
		}
		if engRTree.Stats.String() != engScan.Stats.String() {
			t.Fatalf("r=%d: recovery accounting differs:\nscan:  %s\nrtree: %s", r, engScan.Stats.String(), engRTree.Stats.String())
		}
		want := engScan.Trace.Canonical()
		if got := engRTree.Trace.Canonical(); got != want {
			t.Fatalf("r=%d: recovery hop trees differ:\nscan:  %s\nrtree: %s", r, want, got)
		}
		if !reflect.DeepEqual(regionStrings(engRTree.FailedRegions), regionStrings(engScan.FailedRegions)) {
			t.Fatalf("r=%d: residual failed regions differ between engines", r)
		}

		tcp := tcpStorage(t, n, init.ID(), "knn", params, r, storage.KindRTree, 2, inj)
		if got := tcp.Trace.Canonical(); got != want {
			t.Fatalf("r=%d: tcp rtree tree differs under recovery:\nengine: %s\ntcp:    %s", r, want, got)
		}
		if !reflect.DeepEqual(sortedAnswerIDs(tcp.Answers), sortedAnswerIDs(engScan.Answers)) {
			t.Fatalf("r=%d: tcp rtree recovered answers differ from engine", r)
		}
		if !reflect.DeepEqual(regionStrings(tcp.FailedRegions), regionStrings(engScan.FailedRegions)) {
			t.Fatalf("r=%d: tcp residual failed regions differ from engine", r)
		}
	}
	if recovered == 0 {
		t.Fatal("fault seed produced no recovered subtrees; test is vacuous")
	}
}
