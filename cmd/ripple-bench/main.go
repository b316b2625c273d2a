// Command ripple-bench regenerates the tables and figures of the paper's
// experimental evaluation (§7). Each figure prints as a pair of text tables —
// (a) latency in hops and (b) congestion in messages per query — with one
// column per method, mirroring the published plots.
//
// Usage:
//
//	ripple-bench                 # run everything at laptop scale
//	ripple-bench -fig fig7       # one experiment
//	ripple-bench -list           # list experiments and the Table 1 config
//	ripple-bench -scale quick    # tiny configuration (CI)
//	ripple-bench -scale paper    # the published Table 1 ranges (slow!)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ripple/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run (see -list), or 'all'")
	scale := flag.String("scale", "default", "configuration scale: quick | default | paper")
	seed := flag.Int64("seed", 1, "master random seed")
	list := flag.Bool("list", false, "list experiments and the configuration, then exit")
	csvDir := flag.String("csv", "", "also export each figure's data points as CSV into this directory")
	networks := flag.Int("networks", 0, "override: overlays per data point")
	divQueries := flag.Int("div-queries", 0, "override: diversification queries per overlay")
	resultSizes := flag.String("result-sizes", "", "override: comma-separated k values for Figures 6/11")
	dims := flag.String("dims", "", "override: comma-separated dimensionalities for Figures 5/8/10")
	synthSize := flag.Int("synth-size", 0, "override: SYNTH dataset cardinality")
	faultRates := flag.String("fault-rates", "", "override: comma-separated drop probabilities for churn-faults")
	jsonDir := flag.String("json", "", "also export each figure's full result as JSON into this directory")
	replication := flag.String("replication", "", "override: comma-separated zone replication factors for the recovery experiment (1 = off)")
	recoveryRates := flag.String("recovery-rates", "", "override: comma-separated drop probabilities for the recovery experiment")
	flag.Parse()

	var cfg bench.Config
	switch *scale {
	case "quick":
		cfg = bench.Quick()
	case "default":
		cfg = bench.Default()
	case "paper":
		cfg = bench.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed
	if *networks > 0 {
		cfg.Networks = *networks
	}
	if *divQueries > 0 {
		cfg.DivQueries = *divQueries
	}
	if *resultSizes != "" {
		cfg.ResultSizes = parseInts(*resultSizes, "-result-sizes")
	}
	if *dims != "" {
		cfg.Dims = parseInts(*dims, "-dims")
	}
	if *synthSize > 0 {
		cfg.SynthSize = *synthSize
	}
	if *faultRates != "" {
		cfg.FaultRates = parseFloats(*faultRates, "-fault-rates")
	}
	if *replication != "" {
		cfg.ReplicationFactors = parseInts(*replication, "-replication")
	}
	if *recoveryRates != "" {
		cfg.RecoveryRates = parseFloats(*recoveryRates, "-recovery-rates")
	}

	if *list {
		fmt.Println("Experimental configuration (Table 1):")
		fmt.Println(" ", cfg)
		fmt.Println("\nExperiments:")
		for _, r := range bench.Runners() {
			fmt.Printf("  %-18s %s\n", r.Name, r.Desc)
		}
		return
	}

	runners := bench.Runners()
	if *fig != "all" {
		r := bench.Find(*fig)
		if r == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *fig)
			os.Exit(2)
		}
		runners = []bench.Runner{*r}
	}

	fmt.Printf("configuration: %s\n\n", cfg)
	for _, r := range runners {
		start := time.Now()
		res := r.Run(cfg)
		fmt.Printf("%s  [%s, %v]\n\n", res, r.Name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := exportCSV(*csvDir, r.Name, res); err != nil {
				fmt.Fprintln(os.Stderr, "csv export:", err)
			}
		}
		if *jsonDir != "" {
			if err := exportJSON(*jsonDir, r.Name, res); err != nil {
				fmt.Fprintln(os.Stderr, "json export:", err)
			}
		}
	}
}

func parseInts(csv, flagName string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad %s entry %q\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(csv, flagName string) []float64 {
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 || v > 1 {
			fmt.Fprintf(os.Stderr, "bad %s entry %q (want probabilities in [0,1])\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func exportCSV(dir, name string, res *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return res.WriteCSV(f)
}

func exportJSON(dir, name string, res *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	return res.WriteJSON(f)
}
