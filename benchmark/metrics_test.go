package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// BENCHMARK.json and the harness must name exactly the same metrics, units
// and workloads, and the file must stay inside the driver's limits.
func TestManifestMatchesHarness(t *testing.T) {
	root := repoRoot(t)
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, listed []manifestMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
			if listed[i].Better != "higher" && listed[i].Better != "lower" {
				t.Errorf("%s: %s has better=%q", kind, d.name, listed[i].Better)
			}
		}
	}
	same("end_to_end", endToEnd, man.EndToEnd)
	same("per_layer", perLayer, man.PerLayer)

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (%q) breaks the naming rules or repeats", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	hasSetup := false
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(man.EndToEnd) > 16 || len(man.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(man.EndToEnd), len(man.PerLayer))
	}

	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q (or their whys differ)", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s: name or why breaks the limits (%d chars)", w.Name, len(w.Why))
		}
	}

	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", man.Paths)
	}
	for _, arg := range man.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
	if fi, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil || fi.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
}

// set refuses a name outside the table, and missing reports what a run left
// unmeasured: together they make a run emit every name and nothing else.
func TestMetricSetIsClosed(t *testing.T) {
	m := newMetricSet(endToEnd)
	m.set("qps", 1, 1)
	if miss := m.missing(); len(miss) != len(endToEnd)-1 {
		t.Errorf("missing = %v", miss)
	}
	defer func() {
		if recover() == nil {
			t.Error("setting a metric outside the table must panic")
		}
	}()
	m.set("not_a_metric", 1, 1)
}
