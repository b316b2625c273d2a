package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestParsePromText(t *testing.T) {
	text := `# HELP ripple_netpeer_rpc_seconds wall-clock duration of one RPC attempt
# TYPE ripple_netpeer_rpc_seconds histogram
ripple_netpeer_rpc_seconds_bucket{le="0.001"} 40
ripple_netpeer_rpc_seconds_bucket{le="+Inf"} 50
ripple_netpeer_rpc_seconds_sum 0.125
ripple_netpeer_rpc_seconds_count 50
ripple_plan_decisions_total{mode="fast"} 7
ripple_odd_total{note="has a space"} 3

ripple_netpeer_dials_total 15
`
	before, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if before["ripple_netpeer_dials_total"] != 15 || before[`ripple_plan_decisions_total{mode="fast"}`] != 7 ||
		before[`ripple_odd_total{note="has a space"}`] != 3 || len(before) != 7 {
		t.Fatalf("parsed: %v", before)
	}
	after := promSample{}
	after.add(before)
	after.add(promSample{"ripple_netpeer_rpc_seconds_sum": 0.375, "ripple_netpeer_rpc_seconds_count": 50, "ripple_netpeer_dials_total": 1})
	if got := promDelta(before, after, "ripple_netpeer_dials_total"); got != 1 {
		t.Errorf("delta = %v", got)
	}
	if got := histMean(before, after, "ripple_netpeer_rpc_seconds"); math.Abs(got-0.0075) > 1e-12 {
		t.Errorf("histMean = %v, want 0.0075", got)
	}
	if got := histMean(before, before, "ripple_netpeer_rpc_seconds"); got != 0 {
		t.Errorf("histMean over nothing = %v", got)
	}
	if _, err := parseProm(strings.NewReader("name notanumber\n")); err == nil {
		t.Error("a non-numeric value must not parse")
	}
}

// The committed fixture is a real /metrics scrape of one ripple-serve peer;
// every series the harness reads must be in it under that name.
func TestParsePromFixture(t *testing.T) {
	f, err := os.Open("testdata/peer_metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ripple_netpeer_queue_wait_seconds_sum", "ripple_netpeer_queue_wait_seconds_count",
		"ripple_netpeer_rpc_seconds_sum", "ripple_netpeer_rpc_seconds_count",
		"ripple_netpeer_fanout_sum", "ripple_netpeer_fanout_count",
		"ripple_netpeer_mux_streams_total", "ripple_netpeer_retries_total",
		"ripple_netpeer_overload_rejections_total", "ripple_netpeer_lost_links_total",
		"ripple_netpeer_dials_total", "ripple_storage_index_nodes",
		"ripple_cache_invalidations_total", "ripple_cache_evictions_total", "ripple_cache_bytes",
		"ripple_plan_explorations_total",
	} {
		if _, ok := s[name]; !ok {
			t.Errorf("series %s is not in a peer's /metrics", name)
		}
	}
	if s["ripple_netpeer_rpc_seconds_count"] <= 0 {
		t.Error("the fixture peer served no RPC")
	}
}
