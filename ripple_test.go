// Facade-level integration tests: everything a downstream user would do
// through the public package, exercised end to end.
package ripple_test

import (
	"bytes"
	"math/rand"
	"testing"

	"ripple"
)

func TestFacadeTopKEndToEnd(t *testing.T) {
	ts := ripple.NBA(4000, 3)
	net := ripple.BuildMIDAS(128, ripple.MIDASOptions{Dims: 6, Seed: 1})
	ripple.Load(net, ts)
	f := ripple.UniformLinear(6)
	want := ripple.TopKBrute(ts, f, 10)
	for _, r := range []int{ripple.Fast, 2, ripple.Slow} {
		got, stats := ripple.TopK(net.Peers()[0], f, 10, r)
		if len(got) != 10 {
			t.Fatalf("r=%d: %d results", r, len(got))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("r=%d: result %d mismatch", r, i)
			}
		}
		if stats.QueryMsgs == 0 {
			t.Fatal("no cost recorded")
		}
	}
}

func TestFacadeSkylineEndToEnd(t *testing.T) {
	ts := ripple.Synth(ripple.SynthConfig{N: 3000, Dims: 3, Centers: 20, Seed: 2})
	net := ripple.BuildMIDAS(64, ripple.MIDASOptions{Dims: 3, Seed: 2, PreferBorder: true})
	ripple.Load(net, ts)
	want := ripple.SkylineBrute(ts)
	got, _ := ripple.Skyline(net.Peers()[3], ripple.Fast)
	if len(got) != len(want) {
		t.Fatalf("skyline %d vs brute %d", len(got), len(want))
	}
}

func TestFacadeDiversifyEndToEnd(t *testing.T) {
	ts := ripple.MIRFlickr(1500, 3)
	net := ripple.BuildMIDAS(32, ripple.MIDASOptions{Dims: 5, Seed: 3})
	ripple.Load(net, ts)
	q := ripple.NewDiversifyQuery(ts[0].Vec, 0.5)
	res := ripple.Diversify(net.Peers()[0], q, 5, ripple.Fast, 0)
	if len(res.Set) != 5 {
		t.Fatalf("set size %d", len(res.Set))
	}
	if res.Objective != q.Objective(res.Set) {
		t.Fatal("objective inconsistent with set")
	}
}

func TestFacadeChordAndCAN(t *testing.T) {
	ts := ripple.Uniform(500, 1, 4)
	ring := ripple.BuildChord(16, 5)
	ripple.Load(ring, ts)
	f := ripple.UniformLinear(1)
	got, _ := ripple.TopK(ring.Peers()[0], f, 5, ripple.Fast)
	want := ripple.TopKBrute(ts, f, 5)
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatal("chord top-k mismatch")
		}
	}

	ts3 := ripple.Uniform(800, 3, 5)
	cnet := ripple.BuildCAN(24, ripple.CANOptions{Dims: 3, Seed: 6})
	ripple.Load(cnet, ts3)
	f3 := ripple.UniformLinear(3)
	got3, _ := ripple.TopK(cnet.Peers()[0], f3, 5, ripple.Slow)
	want3 := ripple.TopKBrute(ts3, f3, 5)
	for i := range want3 {
		if got3[i].ID != want3[i].ID {
			t.Fatal("CAN top-k mismatch")
		}
	}
}

func TestFacadeLatencyFormulas(t *testing.T) {
	if ripple.FastWorstLatency(10, 0) != 10 {
		t.Fatal("L_f wrong")
	}
	if ripple.SlowWorstLatency(10, 0) != 1023 {
		t.Fatal("L_s wrong")
	}
	if ripple.RippleWorstLatency(10, 0, 1) != 55 {
		t.Fatal("L_r wrong")
	}
}

func TestFacadeTradeoffStory(t *testing.T) {
	// The paper's headline: r interpolates latency vs congestion. Averaged
	// over initiators, fast must be the latency extreme and slow the
	// congestion extreme.
	ts := ripple.NBA(0, 7)
	net := ripple.BuildMIDAS(512, ripple.MIDASOptions{Dims: 6, Seed: 7})
	ripple.Load(net, ts)
	f := ripple.UniformLinear(6)
	rng := rand.New(rand.NewSource(8))
	var fastLat, slowLat, fastCong, slowCong float64
	const q = 12
	for i := 0; i < q; i++ {
		w := net.RandomPeer(rng)
		_, sf := ripple.TopK(w, f, 10, ripple.Fast)
		_, ss := ripple.TopK(w, f, 10, ripple.Slow)
		fastLat += float64(sf.Latency)
		slowLat += float64(ss.Latency)
		fastCong += sf.Congestion()
		slowCong += ss.Congestion()
	}
	if fastLat >= slowLat {
		t.Fatalf("fast latency %v !< slow %v", fastLat/q, slowLat/q)
	}
	if slowCong >= fastCong {
		t.Fatalf("slow congestion %v !< fast %v", slowCong/q, fastCong/q)
	}
}

func TestFacadeRangeAndKNN(t *testing.T) {
	ts := ripple.Uniform(2000, 3, 11)
	net := ripple.BuildMIDAS(64, ripple.MIDASOptions{Dims: 3, Seed: 12})
	ripple.Load(net, ts)

	// Range query (ball) vs brute force.
	area := ripple.RangeBall{Center: ripple.Point{0.5, 0.5, 0.5}, Radius: 0.2, Metric: ripple.L2}
	got, _ := ripple.Range(net.Peers()[0], area)
	count := 0
	for _, tp := range ts {
		if ripple.L2.Dist(tp.Vec, area.Center) <= area.Radius {
			count++
		}
	}
	if len(got) != count {
		t.Fatalf("range: %d results, want %d", len(got), count)
	}

	// kNN as a top-k rank query vs brute force.
	center := ripple.Point{0.3, 0.7, 0.3}
	knn, _ := ripple.KNN(net.Peers()[5], center, 7, ripple.L2, 1)
	want := ripple.TopKBrute(ts, ripple.Nearest{Center: center, Metric: ripple.L2}, 7)
	for i := range want {
		if knn[i].ID != want[i].ID {
			t.Fatalf("knn rank %d: got %d want %d", i, knn[i].ID, want[i].ID)
		}
	}
}

func TestFacadeTCPDeployment(t *testing.T) {
	ts := ripple.NBA(2000, 13)
	net := ripple.BuildMIDAS(48, ripple.MIDASOptions{Dims: 6, Seed: 14})
	ripple.Load(net, ts)
	servers, addrs, err := ripple.DeployTCP(net, ripple.TopKWire{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	f := ripple.UniformLinear(6)
	params, err := (ripple.TopKWire{}).EncodeParams(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	answers, _, err := ripple.QueryTCP(addrs[net.Peers()[0].ID()], "topk", params, 6, ripple.Fast)
	if err != nil {
		t.Fatal(err)
	}
	want := ripple.TopKBrute(ts, f, 5)
	got := ripple.TopKSelect(answers, f, 5)
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("tcp facade rank %d mismatch", i)
		}
	}
}

func TestFacadeCSV(t *testing.T) {
	ts := ripple.Uniform(50, 2, 15)
	var buf bytes.Buffer
	if err := ripple.WriteCSV(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ripple.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("csv round trip size %d", len(got))
	}
	raw := []ripple.Tuple{{ID: 1, Vec: ripple.Point{100, 3}}, {ID: 2, Vec: ripple.Point{50, 9}}}
	ripple.NormalizeTuples(raw, []bool{false, true})
	if raw[1].Vec[0] != 0 {
		t.Fatal("normalize failed")
	}
}

func TestFacadeConstrainedSkyline(t *testing.T) {
	ts := ripple.Uniform(3000, 2, 31)
	net := ripple.BuildMIDASWithData(64, ripple.MIDASOptions{Dims: 2, Seed: 32}, ts)
	box := ripple.Rect{Lo: ripple.Point{0.3, 0.3}, Hi: ripple.Point{0.7, 0.7}}
	want := ripple.ConstrainedSkylineBrute(ts, box)
	got, stats := ripple.ConstrainedSkyline(net.Peers()[0], box, ripple.Fast)
	if len(got) != len(want) {
		t.Fatalf("constrained skyline %d vs %d", len(got), len(want))
	}
	if stats.QueryMsgs >= 64 {
		t.Fatal("constrained query should not touch every peer")
	}
}
