package main

import "testing"

func TestJudge(t *testing.T) {
	qps := manifestMetric{Name: "qps", Better: "higher", Bound: 0.10}
	lat := manifestMetric{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		name      string
		mm        manifestMetric
		base, new []float64
		want      string
	}{
		{"same", qps, []float64{100, 101, 99}, []float64{100, 102, 98}, verdictOK},
		{"slower within bound", qps, []float64{100, 101, 99}, []float64{93, 94, 92}, verdictOK},
		{"slower beyond bound", qps, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictRegressed},
		{"faster", qps, []float64{100, 101, 99}, []float64{150, 151, 149}, verdictOK},
		{"latency up beyond bound", lat, []float64{2, 2.02, 1.98}, []float64{2.5, 2.52, 2.48}, verdictRegressed},
		{"latency down", lat, []float64{2, 2.02, 1.98}, []float64{1, 1.01, 0.99}, verdictOK},
		{"too noisy to tell", qps, []float64{100, 130, 80}, []float64{85, 86, 84}, verdictUnresolved},
		{"noisy but every run better", qps, []float64{100, 130, 80}, []float64{200, 260, 160}, verdictOK},
	} {
		if _, got := judge(c.mm, c.base, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if r, _ := judge(qps, []float64{100}, []float64{90}); r != 0.9 {
		t.Errorf("ratio = %v, want 0.9 (new/base)", r)
	}
}

func TestCompareDocsOneRowPerWorkloadAndMetric(t *testing.T) {
	man := &manifest{EndToEnd: []manifestMetric{
		{Name: "qps", Unit: "ops/s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	doc := func(qps float64) *document {
		d := &document{Workloads: map[string]*workloadDoc{}}
		for _, s := range specs {
			d.Workloads[s.name] = &workloadDoc{Runs: []map[string]metricValue{
				{"qps": {Value: qps, Unit: "ops/s"}, "setup_s": {Value: 1, Unit: "s"}},
				{"qps": {Value: qps * 1.01, Unit: "ops/s"}, "setup_s": {Value: 1.02, Unit: "s"}},
			}}
		}
		return d
	}
	rows := compareDocs(man, doc(100), doc(70))
	if len(rows) != 2*len(specs) {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(specs))
	}
	for _, r := range rows {
		want := verdictOK
		if r.Metric == "qps" {
			want = verdictRegressed
		}
		if r.Verdict != want {
			t.Errorf("%s %s: %s, want %s", r.Workload, r.Metric, r.Verdict, want)
		}
	}
	if exitFor(rows) != 1 || exitFor(compareDocs(man, doc(100), doc(100))) != 0 {
		t.Error("exit code must be 1 exactly when a row regressed")
	}
}
