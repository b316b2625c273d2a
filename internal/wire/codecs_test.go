// External test package: the query codec packages import wire for the codec
// primitives, so these cross-package tests must sit outside package wire to
// avoid an import cycle in the test binary.
package wire_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/overlay"
	"ripple/internal/skyline"
	"ripple/internal/topk"
	"ripple/internal/trace"
	"ripple/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt and the fuzz seed corpora from the current encoder")

var codecs = []wire.Codec{topk.WireCodec{}, knn.WireCodec{}, skyline.WireCodec{}, diversify.WireCodec{}}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// stateOf builds a codec's state from its wire form, the only way to one
// from outside the query package.
func stateOf(c wire.Codec, b []byte) core.State {
	st, err := c.DecodeState(b)
	if err != nil {
		panic(err)
	}
	return st
}

func topkState(m int, tau float64) []byte {
	return wire.AppendFloat(wire.AppendInt([]byte{wire.TagTopKState}, m), tau)
}

// goldenFrames is one value per message kind and per codec payload, encoded
// by the code under test.
func goldenFrames() map[string][]byte {
	box := geom.Rect{Lo: geom.Point{0.25, 0}, Hi: geom.Point{0.75, 1}}
	tuples := []dataset.Tuple{{ID: 7, Vec: geom.Point{0.5, 0.25}}, {ID: 9, Vec: geom.Point{0.125, 1}}}
	call := &wire.Call{
		QueryType: "topk", Params: []byte{1, 2, 3}, Global: topkState(2, 0.5),
		Restrict: overlay.FromRect(box), R: -1, Hops: 2, Scope: overlay.Whole(2),
		Op: wire.OpInsert, Tuple: tuples[0], ActAs: "p3",
		Traced: true, SpanID: 42, SpanParent: 7, SpanDepth: 2,
	}
	reply := &wire.Reply{
		States: [][]byte{topkState(2, 0.5), nil}, Answers: tuples,
		Completion: 5, QueryMsgs: 3, StateMsgs: 2, TuplesSent: 4, Peers: []string{"p1", "p2"},
		Error: "peer x: panic", Partial: true, FailedRegions: []overlay.Region{overlay.FromRect(box)},
		Failures: 1, Retries: 2, TimedOut: 1, Recovered: 1, Failovers: 2,
		Spans: []trace.Span{{
			ID: 9, Parent: 1, Peer: "p3", Via: "p4", Region: overlay.Whole(2), Phase: trace.PhaseFast,
			R: 2, Depth: 1, Arrive: 2, Attempt: 1, Outcome: trace.OutcomeOK,
			StateTuples: 1, AnswerTuples: 2, Plan: "ripple(2)",
		}},
		CacheHit: true, Plan: "ripple(2)", PlanR: 2, Acks: 3, Forwarded: true,
	}
	var callFrame, replyFrame bytes.Buffer
	if err := wire.WriteMessage(&callFrame, call); err != nil {
		panic(err)
	}
	if err := wire.WriteMuxFrame(&replyFrame, 7, reply); err != nil {
		panic(err)
	}
	tk, kn, sk, dv := topk.WireCodec{}, knn.WireCodec{}, skyline.WireCodec{}, diversify.WireCodec{}
	return map[string][]byte{
		"call.frame":       callFrame.Bytes(),
		"reply.muxframe":   replyFrame.Bytes(),
		"topk.linear":      must(tk.EncodeParams(topk.Linear{Weights: []float64{0.5, 0.25}}, 10)),
		"topk.peak":        must(tk.EncodeParams(topk.Peak{Center: geom.Point{0.5, 0.25}, Sharpness: 4}, 10)),
		"topk.nearest":     must(tk.EncodeParams(topk.Nearest{Center: geom.Point{0.5, 0.25}, Metric: geom.L1}, 10)),
		"topk.state":       must(tk.EncodeState(stateOf(tk, topkState(2, 0.5)))),
		"knn.params":       must(kn.EncodeParams(geom.Point{0.5, 0.25}, 10, geom.L2)),
		"knn.state":        must(kn.EncodeState(stateOf(kn, nil))),
		"skyline.params":   must(sk.EncodeParams(&box)),
		"skyline.state":    must(sk.EncodeState(stateOf(sk, wire.AppendTuples([]byte{wire.TagSkylineState}, tuples)))),
		"diversify.params": must(dv.EncodeParams(diversify.NewQuery(geom.Point{0.5, 0.25}, 0.5), tuples, map[uint64]bool{9: true, 5: true, 7: true}, 0.25)),
		"diversify.state":  must(dv.EncodeState(stateOf(dv, nil))),
	}
}

func readHexFile(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %s: %v", path, name, err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeSeed stores b as a seed-corpus entry of a fuzz target.
func writeSeed(t *testing.T, target, name string, b []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenBytes pins the format: the committed bytes are what today's
// encoder produces, so a layout change cannot land unnoticed. Regenerate
// with `go test ./internal/wire -run TestGoldenBytes -update`.
func TestGoldenBytes(t *testing.T) {
	got := goldenFrames()
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		var sb strings.Builder
		sb.WriteString("# name hex — written by go test ./internal/wire -run TestGoldenBytes -update\n")
		for _, name := range sortedKeys(got) {
			fmt.Fprintf(&sb, "%s %x\n", name, got[name])
			switch {
			case name == "call.frame":
				writeSeed(t, "FuzzDecodeCall", "golden", got[name][4:])
				// A mux frame is the legacy frame behind a stream ID.
				var mux bytes.Buffer
				if err := wire.WriteMuxHello(&mux, wire.MuxVersion); err != nil {
					t.Fatal(err)
				}
				mux.Write([]byte{0, 0, 0, 7})
				mux.Write(got[name])
				writeSeed(t, "FuzzMuxStream", "golden", mux.Bytes())
			case name == "reply.muxframe":
				writeSeed(t, "FuzzDecodeReply", "golden", got[name][8:])
			default:
				writeSeed(t, "FuzzCodecs", name, got[name])
			}
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readHexFile(t, path)
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, the test builds %d", path, len(want), len(got))
	}
	for name, b := range got {
		if !bytes.Equal(b, want[name]) {
			t.Errorf("%s:\n got %x\nwant %x", name, b, want[name])
		}
	}
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestGobBodiesRejected: bytes a gob-era peer would send — recorded from the
// last commit that spoke gob — fail on the tag byte with an error that says
// so, in every decoder.
func TestGobBodiesRejected(t *testing.T) {
	gob := readHexFile(t, filepath.Join("testdata", "gob_era.txt"))
	var c wire.Call
	err := wire.ReadMessage(bytes.NewReader(gob["call.frame"]), &c)
	if err == nil || !strings.Contains(err.Error(), "not this codec's format") {
		t.Fatalf("gob call frame: err = %v", err)
	}
	var p wire.Reply
	if err := wire.ReadMessage(bytes.NewReader(gob["reply.frame"]), &p); err == nil || !strings.Contains(err.Error(), "want tag 0x81") {
		t.Fatalf("gob reply frame: err = %v", err)
	}
	for _, codec := range codecs {
		if _, err := codec.NewProcessor(gob["topk.params"]); err == nil || !strings.Contains(err.Error(), "not this codec's format") {
			t.Fatalf("%s: gob params: err = %v", codec.Name(), err)
		}
		if _, err := codec.DecodeState(gob["topk.state"]); err == nil || !strings.Contains(err.Error(), "not this codec's format") {
			t.Fatalf("%s: gob state: err = %v", codec.Name(), err)
		}
	}
}

// TestThresholdBitsSurvive: infinities, NaN (payload included) and the sign
// of zero cross the wire bit for bit in every threshold-carrying state.
func TestThresholdBitsSurvive(t *testing.T) {
	tags := map[string]byte{"topk": wire.TagTopKState, "knn": wire.TagKNNState, "diversify": wire.TagDiversifyState}
	for _, bits := range []uint64{
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.Copysign(0, -1)), 0x7FF8000000000001, 0xFFF0000000000123,
	} {
		v := math.Float64frombits(bits)
		for _, codec := range codecs {
			tag, ok := tags[codec.Name()]
			if !ok {
				continue
			}
			in := []byte{tag}
			if codec.Name() != "diversify" {
				in = wire.AppendInt(in, 3)
			}
			in = wire.AppendFloat(in, v)
			out := must(codec.EncodeState(stateOf(codec, in)))
			if !bytes.Equal(in, out) {
				t.Errorf("%s: threshold bits %#x: %x came back as %x", codec.Name(), bits, in, out)
			}
		}
	}
}

// TestStateCodecAllocs: states cross every hop, so each direction may cost
// one allocation — the returned slice, the boxed state — and no more.
func TestStateCodecAllocs(t *testing.T) {
	for _, codec := range []wire.Codec{topk.WireCodec{}, knn.WireCodec{}, diversify.WireCodec{}} {
		st := stateOf(codec, nil)
		enc := must(codec.EncodeState(st))
		if n := testing.AllocsPerRun(200, func() { must(codec.EncodeState(st)) }); n > 1 {
			t.Errorf("%s: EncodeState allocates %.0f times, want <= 1", codec.Name(), n)
		}
		if n := testing.AllocsPerRun(200, func() { stateOf(codec, enc) }); n > 1 {
			t.Errorf("%s: DecodeState allocates %.0f times, want <= 1", codec.Name(), n)
		}
	}
}

func TestTopKCodecRoundTrip(t *testing.T) {
	c := topk.WireCodec{}
	for _, f := range []topk.Scorer{
		topk.UniformLinear(3),
		topk.Peak{Center: geom.Point{0.2, 0.3, 0.4}, Sharpness: 5},
		topk.Nearest{Center: geom.Point{0.5, 0.5, 0.5}, Metric: geom.L1},
	} {
		params, err := c.EncodeParams(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := c.NewProcessor(params)
		if err != nil {
			t.Fatal(err)
		}
		tp := proc.(*topk.Processor)
		if tp.K != 4 {
			t.Fatalf("K lost: %d", tp.K)
		}
		p := geom.Point{0.25, 0.5, 0.75}
		if math.Abs(tp.F.Score(p)-f.Score(p)) > 1e-12 {
			t.Fatalf("scorer %T changed on the wire", f)
		}
	}
	if _, err := c.EncodeParams(topk.Nearest{Center: geom.Point{0.5}, Metric: geom.LpMetric{P: 3}}, 4); err == nil {
		t.Fatal("a metric the wire cannot carry must be refused, not replaced")
	}
}

func TestDiversifyCodecRoundTrip(t *testing.T) {
	c := diversify.WireCodec{}
	q := diversify.NewQuery(geom.Point{0.2, 0.8}, 0.4)
	base := []dataset.Tuple{{ID: 5, Vec: geom.Point{0.1, 0.1}}}
	params, err := c.EncodeParams(q, base, map[uint64]bool{5: true, 9: true}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := c.NewProcessor(params)
	if err != nil {
		t.Fatal(err)
	}
	dp := proc.(*diversify.Processor)
	if dp.Query.Lambda != 0.4 || len(dp.Base) != 1 || !dp.Exclude[9] || dp.Tau0 != 0.25 {
		t.Fatalf("params lost on the wire: %+v", dp)
	}
	neutral := must(c.EncodeState(stateOf(c, nil)))
	if want := wire.AppendFloat([]byte{wire.TagDiversifyState}, math.Inf(1)); !bytes.Equal(neutral, want) {
		t.Fatalf("neutral diversify state encodes as %x, want %x", neutral, want)
	}
}

func TestSkylineCodecRoundTrip(t *testing.T) {
	c := skyline.WireCodec{}
	proc, err := c.NewProcessor(nil)
	if err != nil || proc == nil {
		t.Fatalf("NewProcessor: %v", err)
	}
	st, err := c.DecodeState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := proc.StateTuples(st); n != 0 {
		t.Fatalf("neutral skyline state has %d tuples", n)
	}
}

// encoded keeps BenchmarkStateEncode's result alive, or the compiler drops
// the call.
var encoded []byte

func BenchmarkStateEncode(b *testing.B) {
	c := topk.WireCodec{}
	st := stateOf(c, topkState(10, 0.75))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encoded, _ = c.EncodeState(st)
	}
}

// FuzzCodecs feeds one body to every codec's two decoders: none may panic,
// and a state any of them accepts must re-encode to the same bytes.
func FuzzCodecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, codec := range codecs {
			_, _ = codec.NewProcessor(b)
			st, err := codec.DecodeState(b)
			if err != nil || len(b) == 0 {
				continue
			}
			if again := must(codec.EncodeState(st)); !bytes.Equal(again, b) {
				t.Fatalf("%s accepted state %x but re-encodes it as %x", codec.Name(), b, again)
			}
		}
	})
}
