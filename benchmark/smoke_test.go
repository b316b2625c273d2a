package main

import (
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"ripple/benchmark/sut"
)

// TestSmokeFleet boots real 2-peer fleets at -scale smoke and checks that an
// untraced run emits exactly the end-to-end names of BENCHMARK.json and a
// traced run exactly the per-layer names, with no failed operation, and that
// no peer outlives its run.
func TestSmokeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ripple-serve processes")
	}
	root := repoRoot(t)
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	h := &harness{root: root, seed: 1, seconds: 2.5, scale: "smoke", log: io.Discard,
		binDir: filepath.Join(tmp, "bin"), outDir: filepath.Join(tmp, "out"), conns: runtime.NumCPU()}
	defer h.runner.stopAll()
	if err := sut.Build(root, h.binDir); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		trace    bool
		listed   []manifestMetric
	}{
		{"zipf_rw", false, man.EndToEnd},
		{"fanout_cpu", true, man.PerLayer},
	} {
		res, err := h.one(c.workload, h.seed, c.trace)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", c.workload, res.Correct, res.Failed, res.Attempted, res.notes)
		}
		if len(res.Metrics) != len(c.listed) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", c.workload, len(res.Metrics), len(c.listed))
		}
		for _, m := range c.listed {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: metric %s (%s) not emitted as listed: %+v", c.workload, m.Name, m.Unit, v)
			}
		}
	}
	for _, f := range h.runner.fleets {
		for _, pid := range f.Pids() {
			if _, err := procCPU(pid); err == nil {
				t.Errorf("peer %d is still running after its run", pid)
			}
		}
	}
}
