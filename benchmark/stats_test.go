package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(2000)
	for _, c := range []struct{ q, want float64 }{{0.50, 1000}, {0.90, 1800}, {0.99, 1980}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("percentile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
}

// A percentile is refused, not guessed, when fewer than ten samples lie
// beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(990), 0.99); err == nil {
		t.Error("p99 of 990 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(1000), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples has exactly 10 beyond it: %v", err)
	}
	if _, err := percentile(seq(1100), 0.99); err != nil {
		t.Errorf("p99 of 1100 samples has 11 beyond it: %v", err)
	}
	if _, err := percentile(seq(5000), 0.999); err == nil {
		t.Error("p99.9 of 5000 samples has 5 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
	if got, err := percentile(seq(5), 0.5); err != nil || got != 3 {
		t.Errorf("the median needs no tail: got %v, %v", got, err)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver applies to a metric's ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if math.Abs(q1-1.25) > 1e-12 || math.Abs(q3-5.75) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 1.25, 5.75", q1, q3)
	}
	if got := spread([]float64{90, 100, 110, 100, 95, 105, 100, 100, 98, 102}); math.Abs(got-0.055) > 1e-9 {
		t.Errorf("spread = %v; want 0.055", got)
	}
}
