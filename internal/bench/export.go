package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteCSV exports a figure's data points for external plotting: one row per
// x value, with a latency and a congestion column per series.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	sufA, sufB := "latency", "congestion"
	if r.MetricA != "" {
		sufA = columnSuffix(r.MetricA)
	}
	if r.MetricB != "" {
		sufB = columnSuffix(r.MetricB)
	}
	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s+"_"+sufA)
	}
	for _, s := range r.Series {
		header = append(header, s+"_"+sufB)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("bench: csv write: %w", err)
	}
	for _, row := range r.Rows {
		rec := []string{row.X}
		for _, v := range row.Latency {
			rec = append(rec, fmt.Sprintf("%.3f", v))
		}
		for _, v := range row.Congestion {
			rec = append(rec, fmt.Sprintf("%.3f", v))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("bench: csv write: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonResult is the committed-baseline JSON shape of one figure: the full
// result, losslessly, with panel captions resolved so the file reads without
// the harness. Field order is fixed by the struct, so output is deterministic.
type jsonResult struct {
	Fig     string    `json:"fig"`
	Title   string    `json:"title"`
	XLabel  string    `json:"x_label"`
	Series  []string  `json:"series"`
	MetricA string    `json:"metric_a"`
	MetricB string    `json:"metric_b"`
	Rows    []jsonRow `json:"rows"`
}

type jsonRow struct {
	X string    `json:"x"`
	A []float64 `json:"a"`
	B []float64 `json:"b"`
}

// WriteJSON exports the figure as indented JSON, for committing experiment
// results (see results/recovery.json) and for external tooling.
func (r *Result) WriteJSON(w io.Writer) error {
	capA, capB := r.MetricA, r.MetricB
	if capA == "" {
		capA = "latency (hops)"
	}
	if capB == "" {
		capB = "congestion (messages/query)"
	}
	out := jsonResult{Fig: r.Fig, Title: r.Title, XLabel: r.XLabel, Series: r.Series, MetricA: capA, MetricB: capB}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, jsonRow{X: row.X, A: row.Latency, B: row.Congestion})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("bench: json write: %w", err)
	}
	return nil
}

// columnSuffix reduces a panel caption like "top-k recall" to a CSV-friendly
// column suffix ("top-k_recall"): the portion before any parenthesised unit,
// with spaces collapsed to underscores.
func columnSuffix(caption string) string {
	if i := strings.IndexByte(caption, '('); i >= 0 {
		caption = caption[:i]
	}
	return strings.Join(strings.Fields(caption), "_")
}
