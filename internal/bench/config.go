// Package bench is the experiment harness reproducing the paper's evaluation
// (§7): one runner per figure, sweeping the parameters of Table 1 and
// reporting the two metrics of §7.1 — latency (hops) and congestion (query
// messages processed per query) — for every method, averaged over query
// batches on independently grown overlays.
package bench

import "fmt"

// Config carries the experiment parameters of Table 1 plus harness scaling
// knobs. Default() is laptop-scale; Paper() restores the published ranges.
type Config struct {
	// OverlaySizes is the x-axis of Figures 4, 7 and 9.
	OverlaySizes []int
	// Dims is the x-axis of Figures 5, 8 and 10.
	Dims []int
	// ResultSizes is the x-axis of Figures 6 and 11.
	ResultSizes []int
	// Lambdas is the x-axis of Figure 12.
	Lambdas []float64

	// Defaults used when a parameter is not being varied (Table 1).
	DefaultSize int
	// DimsSweepSize is the overlay size used by the dimensionality sweeps
	// (Figures 5, 8, 10); high-dimensional SYNTH skylines are enormous, so
	// the default configuration runs them on a smaller overlay.
	DimsSweepSize int
	DefaultDims   int
	DefaultK      int
	DefaultLambda float64

	// Dataset cardinalities (paper: NBA 22,000; MIRFLICKR and SYNTH 10^6).
	NBASize    int
	FlickrSize int
	SynthSize  int

	// Networks is the number of independently grown overlays per data point
	// (paper: 16) and the per-family query counts per overlay (paper: 65,536
	// in total).
	Networks    int
	TopKQueries int
	SkyQueries  int
	DivQueries  int
	DivMaxIters int
	Seed        int64

	// FaultRates is the x-axis of the churn-with-failures experiment: the
	// per-link drop probability injected into every query propagation.
	FaultRates []float64

	// RecoveryRates is the x-axis of the replication-recovery experiment and
	// ReplicationFactors its series: each drop rate is swept once per zone
	// replication factor (1 = the unreplicated baseline).
	RecoveryRates      []float64
	ReplicationFactors []int
}

// Default returns a configuration that reproduces every figure's shape on a
// laptop in minutes.
func Default() Config {
	return Config{
		OverlaySizes:  []int{1024, 2048, 4096, 8192},
		Dims:          []int{2, 3, 4, 5, 6, 8, 10},
		ResultSizes:   []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Lambdas:       []float64{0, 0.2, 0.3, 0.5, 0.7, 0.8, 1},
		DefaultSize:   4096,
		DimsSweepSize: 1024,
		DefaultDims:   5,
		DefaultK:      10,
		DefaultLambda: 0.5,
		NBASize:       22000,
		FlickrSize:    20000,
		SynthSize:     10000,
		Networks:      2,
		TopKQueries:   32,
		SkyQueries:    8,
		DivQueries:    4,
		DivMaxIters:   5,
		Seed:          1,
		FaultRates:    []float64{0, 0.02, 0.05, 0.1, 0.2},

		RecoveryRates:      []float64{0.05, 0.15, 0.25},
		ReplicationFactors: []int{1, 2, 3},
	}
}

// Quick returns a configuration small enough for go test benchmarks.
func Quick() Config {
	c := Default()
	c.OverlaySizes = []int{256, 512, 1024}
	c.Dims = []int{2, 4, 6}
	c.ResultSizes = []int{10, 40, 80}
	c.Lambdas = []float64{0, 0.5, 1}
	c.DefaultSize = 512
	c.DimsSweepSize = 256
	c.NBASize = 6000
	c.FlickrSize = 5000
	c.SynthSize = 5000
	c.Networks = 1
	c.TopKQueries = 8
	c.SkyQueries = 6
	c.DivQueries = 2
	c.DivMaxIters = 3
	c.FaultRates = []float64{0, 0.05, 0.2}
	c.RecoveryRates = []float64{0.05, 0.25}
	c.ReplicationFactors = []int{1, 2}
	return c
}

// Paper returns the published experimental configuration (Table 1). Running
// it takes serious time and memory; intended for full reproduction runs.
func Paper() Config {
	return Config{
		OverlaySizes:  []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17},
		Dims:          []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
		ResultSizes:   []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Lambdas:       []float64{0, 0.2, 0.3, 0.5, 0.7, 0.8, 1},
		DefaultSize:   1 << 14,
		DimsSweepSize: 1 << 14,
		DefaultDims:   5,
		DefaultK:      10,
		DefaultLambda: 0.5,
		NBASize:       22000,
		FlickrSize:    1000000,
		SynthSize:     1000000,
		Networks:      16,
		TopKQueries:   4096,
		SkyQueries:    4096,
		DivQueries:    256,
		DivMaxIters:   10,
		Seed:          1,
		FaultRates:    []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4},

		RecoveryRates:      []float64{0.05, 0.1, 0.15, 0.2, 0.25},
		ReplicationFactors: []int{1, 2, 3},
	}
}

// String summarises the configuration (the Table 1 of a run's report).
func (c Config) String() string {
	return fmt.Sprintf(
		"overlay sizes %v | dims %v | result sizes %v | lambdas %v | defaults: size=%d dims=%d k=%d λ=%.1f | networks=%d",
		c.OverlaySizes, c.Dims, c.ResultSizes, c.Lambdas,
		c.DefaultSize, c.DefaultDims, c.DefaultK, c.DefaultLambda, c.Networks)
}
