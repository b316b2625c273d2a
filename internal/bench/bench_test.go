package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestLemmasTableMatches(t *testing.T) {
	res := Lemmas(6)
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (r=0..6)", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.Latency[0] != row.Latency[1] {
			t.Fatalf("r=%d: analytic %v != measured %v", i, row.Latency[0], row.Latency[1])
		}
	}
}

func TestFig4Shape(t *testing.T) {
	cfg := Quick()
	cfg.OverlaySizes = []int{256, 512}
	res := Fig4(cfg)
	for i := range res.Rows {
		fastLat := res.Value(i, "r=0", false)
		slowLat := res.Value(i, "r=D", false)
		if fastLat >= slowLat {
			t.Errorf("row %d: fast latency %v not below slow %v", i, fastLat, slowLat)
		}
		fastCong := res.Value(i, "r=0", true)
		slowCong := res.Value(i, "r=D", true)
		if slowCong >= fastCong {
			t.Errorf("row %d: slow congestion %v not below fast %v", i, slowCong, fastCong)
		}
	}
	// Latency must grow with overlay size for the slow extreme.
	if res.Value(0, "r=D", false) >= res.Value(1, "r=D", false) {
		t.Error("slow latency did not grow with overlay size")
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := Quick()
	cfg.OverlaySizes = []int{256, 512}
	cfg.SkyQueries = 4
	res := Fig7(cfg)
	for i := range res.Rows {
		if res.Value(i, "ripple-fast", false) >= res.Value(i, "ripple-slow", false) {
			t.Errorf("row %d: ripple-fast latency not below ripple-slow", i)
		}
		if res.Value(i, "ripple-slow", true) >= res.Value(i, "ripple-fast", true) {
			t.Errorf("row %d: ripple-slow congestion not below ripple-fast", i)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := Quick()
	cfg.OverlaySizes = []int{256}
	cfg.DivQueries = 2
	res := Fig9(cfg)
	// §7.2.3: the baseline floods per step, so RIPPLE's slow extreme must use
	// far fewer messages, and ripple-fast must answer in far fewer hops.
	if res.Value(0, "ripple-slow", true) >= res.Value(0, "baseline(can)", true) {
		t.Error("ripple-slow congestion not below baseline")
	}
	if res.Value(0, "ripple-fast", false) >= res.Value(0, "baseline(can)", false) {
		t.Error("ripple-fast latency not below baseline")
	}
}

func TestRunnersRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, r := range Runners() {
		if names[r.Name] {
			t.Fatalf("duplicate runner %s", r.Name)
		}
		names[r.Name] = true
		if r.Run == nil || r.Desc == "" {
			t.Fatalf("runner %s incomplete", r.Name)
		}
	}
	for _, want := range []string{"lemmas", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		if !names[want] {
			t.Fatalf("runner %s missing", want)
		}
	}
	if Find("fig4") == nil || Find("nope") != nil {
		t.Fatal("Find broken")
	}
}

func TestResultRendering(t *testing.T) {
	res := Lemmas(4)
	s := res.String()
	for _, want := range []string{"Lemmas 1-3", "analytic", "measured", "(a) latency", "(b) congestion"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestConfigs(t *testing.T) {
	for _, cfg := range []Config{Default(), Quick(), Paper()} {
		if len(cfg.OverlaySizes) == 0 || cfg.DefaultK <= 0 || cfg.Networks <= 0 {
			t.Fatalf("bad config %+v", cfg)
		}
		if cfg.String() == "" {
			t.Fatal("empty config description")
		}
	}
}

func TestLog2Int(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 512: 9, 1024: 10}
	for n, want := range cases {
		if got := log2int(n); got != want {
			t.Fatalf("log2int(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestChurnExperiment(t *testing.T) {
	cfg := Quick()
	cfg.OverlaySizes = []int{64, 128, 256}
	cfg.TopKQueries = 4
	res := Churn(cfg)
	// Rows: up/64, up/128, up/256, down/128, down/64.
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if res.Rows[0].X != "up/64" || res.Rows[4].X != "down/64" {
		t.Fatalf("stage labels wrong: %v ... %v", res.Rows[0].X, res.Rows[4].X)
	}
	for i, row := range res.Rows {
		if row.Latency[0] <= 0 && row.Congestion[0] <= 1 {
			t.Fatalf("row %d has no cost recorded", i)
		}
	}
}

func TestChurnFaultsExperiment(t *testing.T) {
	cfg := Quick()
	cfg.DefaultSize = 96
	cfg.NBASize = 3000
	cfg.TopKQueries = 6
	cfg.FaultRates = []float64{0, 0.3}
	res := ChurnFaults(cfg)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// Rate 0 is fault-free: both extremes must reach perfect recall with
	// zero lost links.
	for _, series := range []string{"fast", "slow"} {
		if got := res.Value(0, series, false); got != 1.0 {
			t.Fatalf("%s recall at rate 0 = %v, want 1.0", series, got)
		}
		if got := res.Value(0, series, true); got != 0 {
			t.Fatalf("%s lost links at rate 0 = %v, want 0", series, got)
		}
	}
	// Under a heavy drop rate recall stays a valid fraction and some links
	// are actually lost.
	lostAny := false
	for _, series := range []string{"fast", "slow"} {
		r := res.Value(1, series, false)
		if r < 0 || r > 1 {
			t.Fatalf("%s recall at rate 0.3 = %v, outside [0,1]", series, r)
		}
		lostAny = lostAny || res.Value(1, series, true) > 0
	}
	if !lostAny {
		t.Fatal("30% drop rate lost no links across 12 queries (tune the seed if this fires)")
	}
	// The custom panel captions and CSV suffixes must be in effect.
	if s := res.String(); !strings.Contains(s, "(a) top-k recall") ||
		!strings.Contains(s, "(b) failed links/query") {
		t.Fatalf("fault panels mislabelled:\n%s", s)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if head := strings.SplitN(buf.String(), "\n", 2)[0]; !strings.Contains(head, "fast_top-k_recall") ||
		!strings.Contains(head, "slow_failed_links/query") {
		t.Fatalf("fault csv header: %s", head)
	}
}

func TestResultWriteCSV(t *testing.T) {
	res := Lemmas(4)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(res.Rows) {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+len(res.Rows))
	}
	if !strings.Contains(lines[0], "analytic_latency") {
		t.Fatalf("csv header: %s", lines[0])
	}
}

// TestRecoveryExperiment pins the replication invariants of the recovery
// sweep on the quick overlay:
//
//   - recall is a probability: every panel (a) value within [0,1];
//   - replication helps monotonically at every drop rate: recall never falls
//     and unrecoverable regions never rise as R goes up;
//   - the highest replication factor actually recovers: recall >= 0.95 and
//     at most one unrecoverable region per query at every drop rate.
//
// R=3 is in the grid because R=2 alone leaves more than one region per
// query at a 25% drop rate on this overlay.
func TestRecoveryExperiment(t *testing.T) {
	cfg := Quick()
	cfg.RecoveryRates = []float64{0.05, 0.15, 0.25}
	cfg.ReplicationFactors = []int{1, 2, 3}
	res := Recovery(cfg)
	if len(res.Rows) != 3 || len(res.Series) != 3 {
		t.Fatalf("shape: %d rows x %d series, want 3x3", len(res.Rows), len(res.Series))
	}
	last := len(res.Series) - 1
	if res.Value(len(res.Rows)-1, "R=1", true) == 0 {
		t.Fatal("25% drop rate lost nothing without replication (tune the seed if this fires)")
	}
	for _, row := range res.Rows {
		for i, a := range row.Latency {
			if a < 0 || a > 1 {
				t.Errorf("drop %s %s: recall %.4f outside [0,1]", row.X, res.Series[i], a)
			}
		}
		for i := 1; i < len(res.Series); i++ {
			if row.Latency[i] < row.Latency[i-1] {
				t.Errorf("drop %s: recall degrades with replication: %s %.4f -> %s %.4f",
					row.X, res.Series[i-1], row.Latency[i-1], res.Series[i], row.Latency[i])
			}
			if row.Congestion[i] > row.Congestion[i-1] {
				t.Errorf("drop %s: unrecoverable regions grow with replication: %s %.2f -> %s %.2f",
					row.X, res.Series[i-1], row.Congestion[i-1], res.Series[i], row.Congestion[i])
			}
		}
		if row.Latency[last] < 0.95 {
			t.Errorf("drop %s: %s recall %.4f below 0.95", row.X, res.Series[last], row.Latency[last])
		}
		if row.Congestion[last] > 1 {
			t.Errorf("drop %s: %s leaves %.2f unrecoverable regions/query", row.X, res.Series[last], row.Congestion[last])
		}
	}
}

// TestResultWriteJSON: the committed-baseline JSON is lossless and carries
// the resolved panel captions.
func TestResultWriteJSON(t *testing.T) {
	res := Lemmas(4)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"metric_a"`) || !strings.Contains(out, "latency (hops)") {
		t.Fatalf("json missing resolved captions:\n%s", out)
	}
	if !strings.Contains(out, `"x"`) || strings.Count(out, `"a"`) != len(res.Rows) {
		t.Fatalf("json rows malformed:\n%s", out)
	}
}
