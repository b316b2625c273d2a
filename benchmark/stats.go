package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before the
// harness prints it: a p99 over 500 samples rests on five values and moves
// with each of them.
const tailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule. It refuses — with an error, never a guess — when fewer than
// tailSamples values lie strictly beyond the returned rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.3g of no samples", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if q > 0.5 && n-1-rank < tailSamples {
		return 0, fmt.Errorf("percentile %.4g needs %d samples beyond it, %d samples leave %d",
			q, tailSamples, n, n-1-rank)
	}
	return sorted[rank], nil
}

// median is the 0.5-quantile with the usual midpoint for even counts; 0 for
// an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// driver applies to a metric's runs.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(i int) float64 { // the i-th of 4 cut points over n+1 gaps
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
