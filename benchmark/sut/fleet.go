// Package sut is the benchmark's one seam to the system under test. Every
// import of ripple/internal/... and every ripple-plan / ripple-serve flag
// string lives in this package: fleet.go is the end-to-end path (build the
// two binaries, plan, boot, query over TCP), layers.go the in-process probes
// of single layers. The surfaces used here are the ones ROADMAP direction 2
// keeps (ripple-plan deploy mode, ripple-serve -config, netpeer.NewClient and
// its Query*/Insert/Delete methods, the codecs' EncodeParams, the families'
// Select/Compute), so the planned simplifications do not break the judge.
package sut

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/plan"
	"ripple/internal/skyline"
	"ripple/internal/topk"
)

// Tuple is the system's tuple type; the loadgen owns datasets of these.
type Tuple = dataset.Tuple

// RAuto asks the serving peer's planner to pick the ripple parameter.
const RAuto = plan.RAuto

// Query families, as named on the wire.
const (
	TopK    = "topk"
	KNN     = "knn"
	Skyline = "skyline"
)

// Box is an axis-parallel half-open box [Lo, Hi).
type Box struct{ Lo, Hi []float64 }

// Contains reports whether p lies in the half-open box.
func (b Box) Contains(p []float64) bool {
	return geom.Rect{Lo: b.Lo, Hi: b.Hi}.Contains(p)
}

// Synth generates the paper's clustered synthetic dataset the way ripple-plan
// does for a synthetic deployment (n/20 centres).
func Synth(n, dims int, seed int64) []Tuple {
	return dataset.Synth(dataset.SynthConfig{N: n, Dims: dims, Centers: n / 20, Seed: seed})
}

// goEnv is the environment for go build: caches inside the checkout, no
// network, no VCS stamping (the driver's checkout is not a git repository).
func goEnv(root string) []string {
	env := scrubbedEnv()
	set := func(k, v string) {
		if os.Getenv(k) == "" {
			env = append(env, k+"="+v)
		}
	}
	build := filepath.Join(root, ".bench_build")
	set("GOCACHE", filepath.Join(build, "gocache"))
	set("GOPATH", filepath.Join(build, "gopath"))
	set("XDG_CONFIG_HOME", filepath.Join(build, "config"))
	set("GOFLAGS", "-buildvcs=false")
	set("GOTOOLCHAIN", "local")
	set("GOPROXY", "off")
	return env
}

// scrubbedEnv is this process's environment without RIPPLE_STORAGE, so the
// storage engine is whatever ripple-serve defaults to.
func scrubbedEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "RIPPLE_STORAGE=") {
			env = append(env, kv)
		}
	}
	return env
}

// Build compiles ripple-plan and ripple-serve from the checkout at root into
// binDir. It is not part of any timed phase.
func Build(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/ripple-plan", "./cmd/ripple-serve")
	cmd.Dir = root
	cmd.Env = goEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("sut: go build: %v\n%s", err, out)
	}
	return nil
}

// FleetConfig describes one multi-process deployment.
type FleetConfig struct {
	BinDir   string  // holds ripple-plan and ripple-serve
	Dir      string  // work directory: dataset CSV, configs, peer logs
	Peers    int     // overlay size
	Data     []Tuple // the dataset, written as CSV for ripple-plan
	PlanSeed int64

	CacheBytes  int64         // -cache-size; 0 leaves the cache off
	FaultDelay  time.Duration // with -fault-delay-rate 1; 0 injects nothing
	PlanAuto    bool          // -plan auto
	MetricsAddr bool          // -metrics-addr per peer (the traced run)
	ExtraArgs   []string      // experiment switch: appended to every ripple-serve
}

// Fleet is a booted deployment: one ripple-serve process per peer on
// loopback, all in one process group.
type Fleet struct {
	Addrs   []string // peer i's wire address, in overlay node order
	Metrics []string // peer i's http address; empty unless MetricsAddr
	PlanDur time.Duration
	BootDur time.Duration

	cmds []*exec.Cmd
	pgid int

	mu      sync.Mutex
	stopped bool
	dead    error
	exited  sync.WaitGroup
}

// Boot writes the dataset, runs ripple-plan, starts every peer and waits
// until all accept connections. A port collision re-plans on another base
// port.
func Boot(cfg FleetConfig) (*Fleet, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	csv := filepath.Join(cfg.Dir, "data.csv")
	if err := writeCSV(csv, cfg.Data); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		base, err := freeBasePort(2 * cfg.Peers)
		if err != nil {
			return nil, err
		}
		f, err := bootAt(cfg, csv, base)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("sut: fleet did not boot: %w", lastErr)
}

func writeCSV(path string, ts []Tuple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := dataset.WriteCSV(w, ts); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// freeBasePort finds n consecutive loopback ports that are free right now.
func freeBasePort(n int) (int, error) {
	for try := 0; try < 50; try++ {
		base := 20000 + rand.Intn(30000)
		ok := true
		for p := base; p < base+n && ok; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			ln.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, errors.New("sut: no free port range on loopback")
}

func bootAt(cfg FleetConfig, csv string, base int) (*Fleet, error) {
	planDir := filepath.Join(cfg.Dir, "plan")
	if err := os.RemoveAll(planDir); err != nil {
		return nil, err
	}
	start := time.Now()
	planCmd := exec.Command(filepath.Join(cfg.BinDir, "ripple-plan"),
		"-size", fmt.Sprint(cfg.Peers), "-data", csv, "-out", planDir,
		"-base-port", fmt.Sprint(base), "-seed", fmt.Sprint(cfg.PlanSeed))
	planCmd.Env = scrubbedEnv()
	if out, err := planCmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("sut: ripple-plan: %v\n%s", err, out)
	}
	f := &Fleet{PlanDur: time.Since(start)}

	bootStart := time.Now()
	for i := 0; i < cfg.Peers; i++ {
		path := filepath.Join(planDir, fmt.Sprintf("peer-%03d.json", i))
		fc, err := netpeer.ReadConfigFile(path)
		if err != nil {
			f.Stop()
			return nil, err
		}
		f.Addrs = append(f.Addrs, fc.Addr)

		args := []string{"-config", path}
		if cfg.CacheBytes > 0 {
			args = append(args, "-cache-size", fmt.Sprint(cfg.CacheBytes))
		}
		if cfg.FaultDelay > 0 {
			args = append(args, "-fault-delay-rate", "1", "-fault-delay", cfg.FaultDelay.String())
		}
		if cfg.PlanAuto {
			args = append(args, "-plan", "auto")
		}
		if cfg.MetricsAddr {
			maddr := fmt.Sprintf("127.0.0.1:%d", base+cfg.Peers+i)
			f.Metrics = append(f.Metrics, maddr)
			args = append(args, "-metrics-addr", maddr)
		}
		args = append(args, cfg.ExtraArgs...)

		logf, err := os.Create(filepath.Join(cfg.Dir, fmt.Sprintf("peer-%03d.log", i)))
		if err != nil {
			f.Stop()
			return nil, err
		}
		cmd := peerCommand(filepath.Join(cfg.BinDir, "ripple-serve"), args)
		cmd.Env = scrubbedEnv()
		cmd.Stdout, cmd.Stderr = logf, logf
		// One process group for the whole fleet, so one kill reaps it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pgid: f.pgid}
		err = cmd.Start()
		logf.Close()
		if err != nil {
			f.Stop()
			return nil, fmt.Errorf("sut: start peer %d: %w", i, err)
		}
		if f.pgid == 0 {
			f.pgid = cmd.Process.Pid
		}
		f.cmds = append(f.cmds, cmd)
		f.exited.Add(1)
		go f.watch(i, cmd)
	}
	if err := f.waitAccepting(20 * time.Second); err != nil {
		f.Stop()
		return nil, err
	}
	f.BootDur = time.Since(bootStart)
	return f, nil
}

// peerCommand starts a peer a few nice levels below the load generator. On a
// box with as many busy peers as this and two cores, the generator otherwise
// waits milliseconds for a CPU when a request falls due; every peer gets the
// same level, so the fleet's own scheduling is unchanged. Lowering priority
// needs no privilege. Without a nice binary the peers run at the default.
func peerCommand(bin string, args []string) *exec.Cmd {
	if nice, err := exec.LookPath("nice"); err == nil {
		return exec.Command(nice, append([]string{"-n", "5", bin}, args...)...)
	}
	return exec.Command(bin, args...)
}

// watch reaps one peer; an exit before Stop is a peer death and fails the run.
func (f *Fleet) watch(i int, cmd *exec.Cmd) {
	defer f.exited.Done()
	err := cmd.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.stopped && f.dead == nil {
		f.dead = fmt.Errorf("sut: peer %d (pid %d) died mid-run: %v", i, cmd.Process.Pid, err)
	}
}

func (f *Fleet) waitAccepting(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, addr := range f.Addrs {
		for {
			if err := f.Err(); err != nil {
				return err
			}
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("sut: peer at %s not accepting after %v: %w", addr, limit, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// Err reports a peer that died before Stop.
func (f *Fleet) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// Pids lists the peer processes.
func (f *Fleet) Pids() []int {
	pids := make([]int, len(f.cmds))
	for i, c := range f.cmds {
		pids[i] = c.Process.Pid
	}
	return pids
}

// Stop kills the fleet's process group and waits until every peer has ended.
// It is safe to call more than once.
func (f *Fleet) Stop() {
	f.mu.Lock()
	already := f.stopped
	f.stopped = true
	f.mu.Unlock()
	if !already && f.pgid != 0 {
		// ESRCH means every peer already exited; nothing else can fail here.
		_ = syscall.Kill(-f.pgid, syscall.SIGKILL)
	}
	f.exited.Wait()
}

// Query is one read operation against the deployment.
type Query struct {
	Family  string
	K       int
	Weights []float64 // topk: positive linear weights
	Center  []float64 // knn: query point, L2
	Scope   *Box      // nil: the whole domain
	R       int       // 0 = fast, RAuto = planner's choice
}

// Reply is what the initiator peer returned: the candidate superset (Finish
// reduces it to the answer) and the reply's self-description.
type Reply struct {
	Candidates []Tuple
	Partial    bool
	CacheHit   bool
	PlanR      int
	Spans      int // hop-tree spans; traced queries only
	Depth      int // hop-tree depth; traced queries only
}

// Client is a warm multiplexed connection to one initiator peer; concurrent
// calls ride it as streams.
type Client struct {
	c    *netpeer.Client
	dims int
}

// Dial returns a client for the peer at addr; it connects on first use.
func Dial(addr string, dims int, timeout time.Duration) *Client {
	return &Client{c: netpeer.NewClient(addr, timeout), dims: dims}
}

// Close tears the connection down.
func (c *Client) Close() error { return c.c.Close() }

func encodeParams(q Query) ([]byte, error) {
	switch q.Family {
	case TopK:
		return topk.WireCodec{}.EncodeParams(topk.Linear{Weights: q.Weights}, q.K)
	case KNN:
		return knn.WireCodec{}.EncodeParams(geom.Point(q.Center), q.K, geom.L2)
	case Skyline:
		return nil, nil
	}
	return nil, fmt.Errorf("sut: unknown query family %q", q.Family)
}

func scopeRegion(b *Box) overlay.Region {
	if b == nil {
		return overlay.Region{}
	}
	return overlay.FromRect(geom.Rect{Lo: b.Lo, Hi: b.Hi})
}

// Do runs one query. traced asks for the hop tree (QueryTraced).
func (c *Client) Do(q Query, traced bool) (Reply, error) {
	params, err := encodeParams(q)
	if err != nil {
		return Reply{}, err
	}
	var res *netpeer.QueryResult
	switch {
	case traced:
		res, err = c.c.QueryTraced(q.Family, params, c.dims, q.R)
	case q.Scope != nil:
		res, err = c.c.QueryScoped(q.Family, params, c.dims, q.R, scopeRegion(q.Scope))
	default:
		res, err = c.c.QueryDetailed(q.Family, params, c.dims, q.R)
	}
	if err != nil {
		return Reply{}, err
	}
	rep := Reply{Candidates: res.Answers, Partial: res.Partial(), CacheHit: res.CacheHit, PlanR: res.PlanR}
	if res.Trace != nil {
		rep.Spans, rep.Depth = res.Trace.Spans(), res.Trace.Depth()
	}
	return rep, nil
}

// Insert routes a tuple to its owner; it reports the peers that applied it.
func (c *Client) Insert(t Tuple) (int, error) { return c.c.Insert(t) }

// Delete removes a tuple by ID at the owner of its point.
func (c *Client) Delete(t Tuple) (int, error) { return c.c.Delete(t) }

// IsOverloaded reports an admission-control rejection.
func IsOverloaded(err error) bool {
	var oe *netpeer.OverloadError
	return errors.As(err, &oe)
}

// ModeOf names the template a resolved ripple parameter selects: "fast",
// "ripple" or "slow".
func ModeOf(r int) string { return plan.ModeOf(r).String() }

// Finish is the initiator's final merge: it reduces a reply's candidate
// superset to the query's answer.
func Finish(q Query, candidates []Tuple) []Tuple {
	switch q.Family {
	case TopK:
		return topk.Select(candidates, topk.Linear{Weights: q.Weights}, q.K)
	case KNN:
		return knn.Select(candidates, geom.Point(q.Center), q.K, geom.L2)
	default:
		return skyline.Compute(candidates)
	}
}
