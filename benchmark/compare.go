package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one line of a comparison: a metric on a workload, base against new.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Base     float64 `json:"base"` // median of the base side's runs
	New      float64 `json:"new"`
	Ratio    float64 `json:"ratio"` // new / base
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSpread is a side's own run-to-run spread: the interquartile distance as
// a share of the median, or the full range when there are too few runs for
// quartiles to mean anything.
func runSpread(xs []float64) float64 {
	if len(xs) >= 4 {
		return spread(xs)
	}
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

// judge compares one metric's runs on the two sides. Worse than the bound is
// a regression — unless either side's own spread exceeds the bound, in which
// case the runs cannot tell, and the verdict is unresolved unless every new
// run reads better than every base run.
func judge(mm manifestMetric, base, new []float64) (ratio float64, verdict string) {
	a, b := median(base), median(new)
	if a != 0 {
		ratio = b / a
	}
	noisy := runSpread(base) > mm.Bound || runSpread(new) > mm.Bound
	switch {
	case noisy && !allBetter(mm.Better, base, new):
		return ratio, verdictUnresolved
	case worseBy(mm.Better, a, b) > mm.Bound:
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

func allBetter(better string, base, new []float64) bool {
	for _, a := range base {
		for _, b := range new {
			if worseBy(better, a, b) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareDocs produces one row per workload and end-to-end metric.
func compareDocs(man *manifest, a, b *document) []row {
	var rows []row
	for _, s := range specs {
		wa, wb := a.Workloads[s.name], b.Workloads[s.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, mm := range man.EndToEnd {
			base, new := column(wa.Runs, mm.Name), column(wb.Runs, mm.Name)
			if len(base) == 0 || len(new) == 0 {
				continue
			}
			ratio, verdict := judge(mm, base, new)
			rows = append(rows, row{Workload: s.name, Metric: mm.Name, Unit: mm.Unit,
				Base: median(base), New: median(new), Ratio: ratio, Bound: mm.Bound, Verdict: verdict})
		}
	}
	return rows
}

func column(runs []map[string]metricValue, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tunit\tnew/base\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%.3f\t%.2f\t%s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, r.Ratio, r.Bound, r.Verdict)
	}
	tw.Flush()
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// A -selfcheck file holds two documents; its first is the one to compare.
	var sc selfcheckDoc
	if err := json.Unmarshal(b, &sc); err == nil && sc.A != nil {
		return sc.A, nil
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles is -compare: it exits 1 when any row regressed.
func compareFiles(man *manifest, pathA, pathB string, w io.Writer) int {
	a, err := readDocument(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readDocument(pathB)
	if err != nil {
		return fail(err)
	}
	rows := compareDocs(man, a, b)
	printRows(w, rows)
	return exitFor(rows)
}

func exitFor(rows []row) int {
	for _, r := range rows {
		if r.Verdict == verdictRegressed {
			return 1
		}
	}
	return 0
}

// selfcheckDoc is what -selfcheck stores: both sets and their comparison.
type selfcheckDoc struct {
	A    *document `json:"a"`
	B    *document `json:"b"`
	Rows []row     `json:"rows"`
}

// selfcheck runs the suite twice on the same code and fails if any pair
// disagrees beyond its bound: the benchmark's own repeatability test.
func (h *harness) selfcheck(man *manifest, runs int, out string) int {
	a, err := h.suite(runs)
	if err != nil {
		return fail(err)
	}
	b, err := h.suite(runs)
	if err != nil {
		return fail(err)
	}
	sc := selfcheckDoc{A: a, B: b, Rows: compareDocs(man, a, b)}
	if out != "-" {
		if err := writeJSON(out, sc); err != nil {
			return fail(err)
		}
	}
	printRows(os.Stdout, sc.Rows)
	return exitFor(sc.Rows)
}
