// Command benchmark is this repository's one measured baseline. Per workload
// it generates a dataset, runs the real ripple-plan, boots real
// ripple-serve processes on loopback, drives them closed- and open-loop from
// this single process, verifies answers against its own brute-force oracle,
// and prints every metric of BENCHMARK.json by name. See README.md.
//
//	bash benchmark/run.sh --workload fanout_cpu --seed 1 --seconds 24 --trace 0   # the driver's form
//	bash benchmark/run.sh -workload all -seed 1 -runs 3 -out run.json             # every workload, both kinds of run
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -selfcheck -runs 3 -out benchmark/baseline/seed.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"ripple/benchmark/sut"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for the operation streams and the arrival schedule")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run and the probes")
	scale := flag.String("scale", "full", "full | smoke (2 peers over a small dataset)")
	runs := flag.Int("runs", 1, "-workload all and -selfcheck: untraced runs per workload")
	out := flag.String("out", "-", "-workload all and -selfcheck: where the document goes; - is standard output")
	compare := flag.Bool("compare", false, "compare two documents: -compare a.json b.json")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice on this code and fail if the two disagree beyond a bound")
	extra := flag.String("extra-serve-args", "", "experiment switch: extra arguments for every ripple-serve, space-separated")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	man, err := readManifest(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("usage: -compare a.json b.json"))
		}
		return compareFiles(man, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}

	// RIPPLE_STORAGE would change the engine behind the peers' backs and the
	// probes'; the benchmark measures whatever ripple-serve defaults to.
	os.Unsetenv("RIPPLE_STORAGE")

	h := &harness{
		root: root, seed: *seed, seconds: *seconds, scale: *scale,
		serveArgs: strings.Fields(*extra), log: os.Stderr,
		binDir: filepath.Join(root, ".bench_build", "bin"),
		outDir: filepath.Join(root, "benchmark", "out"),
		conns:  runtime.NumCPU(),
	}
	// Peers must not outlive the harness, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		h.runner.stopAll()
		os.Exit(130)
	}()
	defer h.runner.stopAll()
	defer func() {
		if code == 0 { // a failed run keeps its configs and peer logs
			os.RemoveAll(filepath.Join(h.outDir, fmt.Sprintf("work-%d", os.Getpid())))
		}
	}()

	if err := sut.Build(root, h.binDir); err != nil {
		return fail(err)
	}
	switch {
	case *selfcheck:
		return h.selfcheck(man, *runs, *out)
	case *workload == "all":
		doc, err := h.suite(*runs)
		if err == nil {
			err = writeJSON(*out, doc)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	case *workload == "":
		return fail(errors.New("need -workload <name|all>, -compare or -selfcheck"))
	}

	res, err := h.one(*workload, h.seed, *trace == 1)
	if err != nil {
		return fail(err)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "benchmark: note:", n)
	}
	// The driver reads the last line of standard output: one JSON object,
	// each metric with exactly its value and unit.
	for k, v := range res.Metrics {
		v.Samples = 0
		res.Metrics[k] = v
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json here or above")
		}
		dir = parent
	}
}

// harness is the state one invocation shares across its runs.
type harness struct {
	root, binDir, outDir string
	seed                 int64
	seconds              float64
	scale                string
	serveArgs            []string
	conns                int
	log                  io.Writer
	runner               runner
}

// one runs one workload once.
func (h *harness) one(name string, seed int64, trace bool) (*runResult, error) {
	s, err := findSpec(name)
	if err != nil {
		return nil, err
	}
	if s, err = s.scaled(h.scale); err != nil {
		return nil, err
	}
	cfg := &runConfig{binDir: h.binDir, outDir: h.outDir, spec: s, seed: seed,
		seconds: h.seconds, trace: trace, conns: h.conns, serveArgs: h.serveArgs, log: h.log}
	res, err := h.runner.run(cfg)
	h.runner.stopAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// environment is the fingerprint printed with every document.
type environment struct {
	NProc    int    `json:"nproc"`
	CPUModel string `json:"cpu_model"`
	Kernel   string `json:"kernel"`
	Go       string `json:"go"`
	Commit   string `json:"commit"`
}

func fingerprint(root string) environment {
	env := environment{NProc: runtime.NumCPU(), Go: runtime.Version(), CPUModel: "unknown", Kernel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; there the commit stays unknown.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// workloadDoc is one workload's section of a document: every untraced run's
// end-to-end metrics, and one traced run's per-layer metrics.
type workloadDoc struct {
	Why       string                   `json:"why"`
	Runs      []map[string]metricValue `json:"runs"`
	PerLayer  map[string]metricValue   `json:"per_layer"`
	Budget    map[string]float64       `json:"cpu_budget_us_per_op"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Correct   bool                     `json:"correct"`
	Failures  map[string]int           `json:"failures,omitempty"`
	Notes     []string                 `json:"notes,omitempty"`
}

// document is what -workload all prints and -compare reads.
type document struct {
	Env       environment             `json:"env"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Scale     string                  `json:"scale"`
	ServeArgs []string                `json:"extra_serve_args,omitempty"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

// suite runs every workload: runs untraced runs on consecutive seeds, then
// one traced run.
func (h *harness) suite(runs int) (*document, error) {
	doc := &document{Env: fingerprint(h.root), Seed: h.seed, Seconds: h.seconds, Scale: h.scale,
		ServeArgs: h.serveArgs, Workloads: map[string]*workloadDoc{}}
	for _, s := range specs {
		w := &workloadDoc{Why: s.why, Correct: true, Failures: map[string]int{}}
		doc.Workloads[s.name] = w
		fold := func(res *runResult) {
			w.Attempted += res.Attempted
			w.Failed += res.Failed
			w.Correct = w.Correct && res.Correct
			w.Notes = append(w.Notes, res.notes...)
			for k, n := range res.failures {
				w.Failures[k] += n
			}
		}
		for i := 0; i < runs; i++ {
			res, err := h.one(s.name, h.seed+int64(i), false)
			if err != nil {
				return nil, err
			}
			w.Runs = append(w.Runs, res.Metrics)
			fold(res)
		}
		res, err := h.one(s.name, h.seed, true)
		if err != nil {
			return nil, err
		}
		w.PerLayer, w.Budget = res.Metrics, res.budget
		fold(res)
	}
	return doc, nil
}

// writeJSON stores v, indented, at path; "-" is standard output.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
