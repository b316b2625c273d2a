// Cross-runtime replication equivalence. Zone replication must be invisible
// when nothing fails: a replicated run returns byte-identical answers, costs
// and hop trees to an unreplicated one on every runtime. And when links do
// fail, both runtimes must recover the same subtrees the same way —
// identical recovered spans, identical residual failed regions — because
// replica placement, failover order and span naming are all deterministic.
package ripple_test

import (
	"reflect"
	"sort"
	"testing"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/storage"
	"ripple/internal/topk"
	"ripple/internal/trace"
)

// tcpReplicated runs the fixture's traced top-k query over a loopback
// deployment with the given zone replication factor (see tcpStorage).
func tcpReplicated(t *testing.T, n *midas.Network, initID string, k, r, factor int, inj *faults.Injector) *netpeer.QueryResult {
	t.Helper()
	params, err := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(3), k)
	if err != nil {
		t.Fatal(err)
	}
	return tcpStorage(t, n, initID, "topk", params, r, storage.KindAuto, factor, inj)
}

// regionStrings renders a failed-region list for comparison across runtimes
// (gob round-trips make DeepEqual on regions fragile; rendering is exact).
func regionStrings(rs []overlay.Region) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	return out
}

// sortedAnswerIDs projects an answer set onto its sorted tuple IDs: the TCP
// runtime emits answers in convergecast order, so sets — not sequences — are
// what must agree with the engine.
func sortedAnswerIDs(ts []dataset.Tuple) []uint64 {
	ids := make([]uint64, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func countOutcome(tr *trace.Tree, outcome string) int {
	n := 0
	tr.Walk(func(nd *trace.Node) {
		if nd.Outcome == outcome {
			n++
		}
	})
	return n
}

// TestReplicationZeroFaultIdentity: with no faults injected, replication must
// change nothing — same answers, same costs, same canonical hop tree as the
// unreplicated run, on both runtimes, for R = 2 and 3.
func TestReplicationZeroFaultIdentity(t *testing.T) {
	n, proc, _ := traceOverlay()
	init := n.Peers()[7]

	for _, factor := range []int{2, 3} {
		rm := overlay.BuildReplicas(n, factor)
		if err := overlay.CheckReplication(n, rm); err != nil {
			t.Fatalf("factor %d: %v", factor, err)
		}

		for _, r := range []int{0, 2, 1 << 20} {
			engBase := core.RunOpts(init, proc, r, core.Options{Trace: true})
			engRep := core.RunOpts(init, proc, r, core.Options{Trace: true, Replicas: rm})
			if !reflect.DeepEqual(engRep.Answers, engBase.Answers) {
				t.Fatalf("factor %d r=%d: engine answers changed under replication", factor, r)
			}
			if engRep.Stats.String() != engBase.Stats.String() || engRep.Stats.Recovered != 0 || engRep.Stats.Failovers != 0 {
				t.Fatalf("factor %d r=%d: engine costs changed under replication:\nbase: %s\nrep:  %s",
					factor, r, engBase.Stats.String(), engRep.Stats.String())
			}
			want := engBase.Trace.Canonical()
			if got := engRep.Trace.Canonical(); got != want {
				t.Fatalf("factor %d r=%d: engine hop tree changed under replication", factor, r)
			}

			tcpBase := tcpReplicated(t, n, init.ID(), proc.K, r, 1, nil)
			tcpRep := tcpReplicated(t, n, init.ID(), proc.K, r, factor, nil)
			if !reflect.DeepEqual(tcpRep.Answers, tcpBase.Answers) {
				t.Fatalf("factor %d r=%d: tcp answers changed under replication", factor, r)
			}
			if tcpRep.Partial() || tcpRep.Stats.Recovered != 0 || tcpRep.Stats.Failovers != 0 {
				t.Fatalf("factor %d r=%d: zero-fault tcp run reports recovery activity: %+v", factor, r, tcpRep.Stats)
			}
			if got := tcpRep.Trace.Canonical(); got != want {
				t.Fatalf("factor %d r=%d: tcp hop tree changed under replication", factor, r)
			}
		}
	}
}

// TestRecoveredSubtreeTraceEquivalence: under a shared fault seed and R = 2,
// both runtimes must fail over identically — the same subtrees recovered
// via the same replicas (canonical trees carry the |recovered:<via> marks),
// the same recovery accounting, and the same residual failed regions.
func TestRecoveredSubtreeTraceEquivalence(t *testing.T) {
	n, proc, _ := traceOverlay()
	init := n.Peers()[7]
	inj := faults.New(faults.Config{Seed: 3, DropRate: 0.25})
	rm := overlay.BuildReplicas(n, 2)

	for _, r := range []int{0, 1 << 20} {
		engine := core.RunOpts(init, proc, r, core.Options{Trace: true, Faults: inj, Replicas: rm})
		tcp := tcpReplicated(t, n, init.ID(), proc.K, r, 2, inj)

		if countOutcome(engine.Trace, trace.OutcomeRecovered) == 0 {
			t.Fatalf("r=%d: fault seed produced no recovered subtrees; test is vacuous", r)
		}
		if engine.Stats.Recovered == 0 || engine.Stats.Failovers < engine.Stats.Recovered {
			t.Fatalf("r=%d: engine recovery accounting inconsistent: %+v", r, engine.Stats)
		}
		want := engine.Trace.Canonical()
		if got := tcp.Trace.Canonical(); got != want {
			t.Fatalf("r=%d: tcp tree differs under recovery:\nengine: %s\ntcp:    %s", r, want, got)
		}
		if tcp.Stats.Recovered != engine.Stats.Recovered || tcp.Stats.Failovers != engine.Stats.Failovers || tcp.Stats.RPCFailures != engine.Stats.RPCFailures {
			t.Fatalf("r=%d: tcp recovery stats (rec=%d fo=%d fail=%d) differ from engine (rec=%d fo=%d fail=%d)",
				r, tcp.Stats.Recovered, tcp.Stats.Failovers, tcp.Stats.RPCFailures,
				engine.Stats.Recovered, engine.Stats.Failovers, engine.Stats.RPCFailures)
		}
		// Residual losses — regions no replica could serve — must agree too.
		if !reflect.DeepEqual(regionStrings(tcp.FailedRegions), regionStrings(engine.FailedRegions)) {
			t.Fatalf("r=%d: tcp failed regions %v differ from engine %v",
				r, regionStrings(tcp.FailedRegions), regionStrings(engine.FailedRegions))
		}
	}
}

// TestFailedRegionsCanonical: both runtimes report FailedRegions in the same
// canonical form — sorted by rendering, exact duplicates collapsed — so
// results are comparable regardless of the order losses were recorded in.
func TestFailedRegionsCanonical(t *testing.T) {
	n, proc, _ := traceOverlay()
	init := n.Peers()[7]
	inj := faults.New(faults.Config{Seed: 3, DropRate: 0.25})

	for _, r := range []int{0, 1 << 20} {
		engine := core.RunOpts(init, proc, r, core.Options{Faults: inj})
		tcp := tcpReplicated(t, n, init.ID(), proc.K, r, 1, inj)

		if len(engine.FailedRegions) == 0 {
			t.Fatalf("r=%d: fault seed produced no losses; test is vacuous", r)
		}
		for name, regs := range map[string][]overlay.Region{
			"engine": engine.FailedRegions, "tcp": tcp.FailedRegions,
		} {
			keys := regionStrings(regs)
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("r=%d: %s failed regions not canonical at %d: %q then %q", r, name, i, keys[i-1], keys[i])
				}
			}
		}
		if !reflect.DeepEqual(regionStrings(tcp.FailedRegions), regionStrings(engine.FailedRegions)) {
			t.Fatalf("r=%d: runtimes disagree on failed regions:\nengine: %v\ntcp:    %v", r,
				regionStrings(engine.FailedRegions), regionStrings(tcp.FailedRegions))
		}
	}
}
