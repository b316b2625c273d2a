package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's whole vocabulary: BENCHMARK.json lists exactly these names
// (metrics_test.go holds the two in step), and every later performance claim
// in this repository names one of them on one workload.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the deployment would see. Direction and
// regression bound live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},        // first ripple-plan exec to end of warm-up; median of the run's set-ups
	{"qps", "ops/s"},        // closed phase: correct operations completed per second
	{"cpu_ms_per_op", "ms"}, // closed phase: fleet CPU (utime+stime of every peer) per operation
	{"lat_p50_ms", "ms"},    // open phase at rate_mid, from the instant the request was due
	{"lat_p95_ms", "ms"},    // same
	{"fleet_rss_mb", "MB"},  // sum over peers of peak RSS at the end of the closed phase
}

// perLayer are the metrics of single layers; layers are this repo's modules.
// Sources: (P) in-process probes recorded as spans, (S) /metrics deltas and
// CPU profiles scraped from every peer during the traced phase, (C) what the
// loadgen itself observes.
var perLayer = []metricDef{
	// wire
	{"wire.call_encode_us", "us"}, {"wire.call_decode_us", "us"},
	{"wire.reply_encode_us", "us"}, {"wire.reply_decode_us", "us"},
	{"wire.call_bytes", "B"}, {"wire.reply_bytes", "B"},
	{"wire.roundtrip_allocs", "count"}, {"wire.cpu_share", "ratio"},
	// netpeer
	{"netpeer.rpc_us", "us"}, {"netpeer.rpc_allocs", "count"},
	{"netpeer.queue_wait_us", "us"}, {"netpeer.rpc_attempt_ms", "ms"},
	{"netpeer.fanout_mean", "count"}, {"netpeer.streams_per_op", "count"},
	{"netpeer.retries_per_op", "count"}, {"netpeer.overload_rejections", "count"},
	{"netpeer.lost_links", "count"}, {"netpeer.dials", "count"},
	{"netpeer.cpu_share", "ratio"},
	{"netpeer.write_p50_ms", "ms"}, {"netpeer.write_p99_ms", "ms"},
	{"netpeer.acks_per_write", "count"},
	{"netpeer.plan_ms", "ms"}, {"netpeer.boot_ms", "ms"},
	{"netpeer.residual_us_per_op", "us"},
	// storage
	{"storage.build_ms", "ms"}, {"storage.local_us", "us"}, {"storage.rebuild_us", "us"},
	{"storage.index_nodes", "count"}, {"storage.index_height", "count"},
	{"storage.cpu_share", "ratio"},
	// cache
	{"cache.hit_ratio", "ratio"}, {"cache.lookup_us", "us"}, {"cache.fill_us", "us"},
	{"cache.invalidate_us", "us"}, {"cache.invalidations_per_write", "count"},
	{"cache.evictions", "count"}, {"cache.bytes", "B"}, {"cache.cpu_share", "ratio"},
	// plan
	{"plan.choose_us", "us"}, {"plan.observe_us", "us"},
	{"plan.mode_fast_ratio", "ratio"}, {"plan.mode_ripple_ratio", "ratio"},
	{"plan.mode_slow_ratio", "ratio"}, {"plan.explorations", "count"},
	// core: the paper's logical layer; exact counts that must not move
	{"core.hops_per_op", "count"}, {"core.msgs_per_op", "count"},
	{"core.peers_per_op", "count"}, {"core.tuples_sent_per_op", "count"},
	{"core.run_us", "us"},
	// query families
	{"topk.construct_us", "us"}, {"topk.state_codec_us", "us"}, {"topk.merge_us", "us"}, {"topk.lat_p50_ms", "ms"},
	{"knn.construct_us", "us"}, {"knn.state_codec_us", "us"}, {"knn.merge_us", "us"}, {"knn.lat_p50_ms", "ms"},
	{"skyline.construct_us", "us"}, {"skyline.state_codec_us", "us"}, {"skyline.merge_us", "us"}, {"skyline.lat_p50_ms", "ms"},
	// trace, metrics
	{"trace.overhead_ratio", "ratio"}, {"trace.spans_per_op", "count"}, {"trace.depth_mean", "count"},
	{"metrics.scrape_ms", "ms"},
	// midas
	{"midas.build_ms", "ms"},
	// runtime
	{"runtime.gc_cpu_share", "ratio"}, {"runtime.sched_cpu_share", "ratio"},
	{"runtime.rss_mb_max_peer", "MB"},
	// loadgen: the benchmark itself, as validity guards
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.cpu_share", "ratio"},
	{"loadgen.samples", "count"}, {"loadgen.lat_p99_ms", "ms"},
	{"loadgen.hi_lat_p99_ms", "ms"}, {"loadgen.hi_backlog_end", "count"},
	{"loadgen.warmup_ms", "ms"}, {"loadgen.fail_ratio", "ratio"},
}

// metricValue is one reported number. Samples is how many observations it
// rests on, where that is meaningful.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects one run's values against a table of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metricValue{}}
}

func (m *metricSet) set(name string, v float64, samples int) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = metricValue{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table") // a bug in this harness, not an input
}

// missing lists the table's names no value was set for.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}
