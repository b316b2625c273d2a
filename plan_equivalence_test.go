// Planner equivalence: an adaptively planned query must be observationally
// identical to the static-r run it selected. For every query family and both
// runtimes (structural engine, TCP deployment), running with
// r = RAuto through a planner and re-running with the decision's concrete r
// must return byte-identical answers, identical cost accounting, and
// identical canonical hop trees — the planner may only choose *which* static
// execution happens, never change what one computes. This is the property
// that makes `-plan=auto` safe to flip on in production.
package ripple_test

import (
	"reflect"
	"testing"

	"ripple/internal/core"
	"ripple/internal/netpeer"
	"ripple/internal/plan"
	"ripple/internal/storage"
	"ripple/internal/topk"

	"ripple/internal/diversify"
	"ripple/internal/knn"
	"ripple/internal/skyline"
)

// testPlanner builds a deterministic planner for equivalence runs:
// exploration is disabled so the greedy choice is a pure function of the
// (seeded) cost table and the decision never depends on how many queries ran
// before it.
func testPlanner() *plan.Planner {
	return plan.New(plan.Options{ExploreEvery: -1})
}

func TestPlannerEquivalenceEngine(t *testing.T) {
	n := storageNet(3)
	init := n.Peers()[5]
	for _, tc := range storageCases(t) {
		p := testPlanner()
		planned := core.RunOpts(init, tc.proc, plan.RAuto, core.Options{Trace: true, Planner: p})
		if planned.Plan == nil {
			t.Fatalf("%s: planned run carries no decision", tc.name)
		}
		r := planned.Plan.R
		static := core.RunOpts(init, tc.proc, r, core.Options{Trace: true})
		if !reflect.DeepEqual(planned.Answers, static.Answers) {
			t.Fatalf("%s: planned answers differ from static r=%d", tc.name, r)
		}
		if planned.Stats.String() != static.Stats.String() {
			t.Fatalf("%s: planned cost differs from static r=%d:\nplanned: %s\nstatic:  %s",
				tc.name, r, planned.Stats.String(), static.Stats.String())
		}
		if got, want := planned.Trace.Canonical(), static.Trace.Canonical(); got != want {
			t.Fatalf("%s: planned hop tree differs from static r=%d:\nplanned: %s\nstatic:  %s",
				tc.name, r, got, want)
		}
		// The root span carries the decision annotation — and only there, so
		// the canonical comparison above is not vacuous.
		if planned.Trace == nil || planned.Trace.Root == nil || planned.Trace.Root.Plan == "" {
			t.Fatalf("%s: planned root span missing the decision annotation", tc.name)
		}
	}
}

func TestPlannerEquivalenceTCP(t *testing.T) {
	n := storageNet(3)
	init := n.Peers()[5]
	deploy := func(p *plan.Planner) ([]*netpeer.Server, map[string]string) {
		t.Helper()
		opts := netpeer.Options{Logf: func(string, ...interface{}) {}, Storage: storage.KindRTree, Planner: p}
		servers, addrs, err := netpeer.DeployOpts(n, opts,
			topk.WireCodec{}, skyline.WireCodec{}, diversify.WireCodec{}, knn.WireCodec{})
		if err != nil {
			t.Fatal(err)
		}
		return servers, addrs
	}
	for _, tc := range storageCases(t) {
		servers, addrs := deploy(testPlanner())
		planned, err := netpeer.QueryTraced(addrs[init.ID()], tc.name, tc.params, 3, plan.RAuto, 0)
		for _, s := range servers {
			s.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if planned.Plan == "" {
			t.Fatalf("%s: planned reply carries no decision", tc.name)
		}
		r := planned.PlanR

		servers, addrs = deploy(nil)
		static, err := netpeer.QueryTraced(addrs[init.ID()], tc.name, tc.params, 3, r, 0)
		for _, s := range servers {
			s.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned.Answers, static.Answers) {
			t.Fatalf("%s: planned tcp answers differ from static r=%d", tc.name, r)
		}
		if planned.Stats.String() != static.Stats.String() {
			t.Fatalf("%s: planned tcp cost differs from static r=%d:\nplanned: %s\nstatic:  %s",
				tc.name, r, planned.Stats.String(), static.Stats.String())
		}
		if got, want := planned.Trace.Canonical(), static.Trace.Canonical(); got != want {
			t.Fatalf("%s: planned tcp hop tree differs from static r=%d:\nplanned: %s\nstatic:  %s",
				tc.name, r, got, want)
		}
	}
}

// TestPlannerUnplannedAutoDegradesToFast pins the fallback: r = RAuto against
// a runtime with no planner configured must behave exactly like r = 0, in both
// runtimes, rather than panic or leak the sentinel into hop counts.
func TestPlannerUnplannedAutoDegradesToFast(t *testing.T) {
	n := storageNet(3)
	init := n.Peers()[5]
	tc := storageCases(t)[0] // topk

	want := core.RunOpts(init, tc.proc, 0, core.Options{Trace: true})

	eng := core.RunOpts(init, tc.proc, plan.RAuto, core.Options{Trace: true})
	if !reflect.DeepEqual(eng.Answers, want.Answers) || eng.Trace.Canonical() != want.Trace.Canonical() {
		t.Fatal("engine: unplanned r=auto differs from r=0")
	}
	if eng.Plan != nil {
		t.Fatal("engine: unplanned run must not carry a decision")
	}

	tcp := tcpStorage(t, n, init.ID(), tc.name, tc.params, plan.RAuto, storage.KindRTree, 1, nil)
	if !reflect.DeepEqual(sortedAnswerIDs(tcp.Answers), sortedAnswerIDs(want.Answers)) || tcp.Trace.Canonical() != want.Trace.Canonical() {
		t.Fatal("tcp: unplanned r=auto differs from r=0")
	}
	if tcp.Plan != "" {
		t.Fatal("tcp: unplanned reply must not carry a decision")
	}
}
