package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/overlay"
	"ripple/internal/trace"
)

// The generators below produce nil, never an empty slice: a zero count
// decodes as nil, so that is the form reflect.DeepEqual can compare.

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(6))
	rng.Read(b)
	return string(b)
}

func randBytes(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return nil
	}
	b := make([]byte, 1+rng.Intn(40))
	rng.Read(b)
	return b
}

func randPoint(rng *rand.Rand) geom.Point {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	p := make(geom.Point, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}

func randRegion(rng *rand.Rand) overlay.Region {
	n := rng.Intn(3)
	if n == 0 {
		return overlay.Region{}
	}
	boxes := make([]geom.Rect, n)
	for i := range boxes {
		boxes[i] = geom.Rect{Lo: randPoint(rng), Hi: randPoint(rng)}
	}
	return overlay.Region{Boxes: boxes}
}

func randTuples(rng *rand.Rand) []dataset.Tuple {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		ts[i] = dataset.Tuple{ID: rng.Uint64(), Vec: randPoint(rng)}
	}
	return ts
}

func randInt(rng *rand.Rand) int { return int(rng.Uint64()) }

func randCall(rng *rand.Rand) *Call {
	return &Call{
		QueryType: randString(rng), Params: randBytes(rng), Global: randBytes(rng),
		Restrict: randRegion(rng), R: randInt(rng), Hops: randInt(rng), Scope: randRegion(rng),
		Op: randString(rng), Tuple: dataset.Tuple{ID: rng.Uint64(), Vec: randPoint(rng)},
		ActAs: randString(rng), Traced: rng.Intn(2) == 0,
		SpanID: rng.Uint64(), SpanParent: rng.Uint64(), SpanDepth: randInt(rng),
	}
}

func randReply(rng *rand.Rand) *Reply {
	p := &Reply{
		Answers: randTuples(rng), Completion: randInt(rng), QueryMsgs: randInt(rng),
		StateMsgs: randInt(rng), TuplesSent: randInt(rng), Error: randString(rng),
		Partial: rng.Intn(2) == 0, Failures: randInt(rng), Retries: randInt(rng),
		TimedOut: randInt(rng), Recovered: randInt(rng), Failovers: randInt(rng),
		CacheHit: rng.Intn(2) == 0, Plan: randString(rng), PlanR: randInt(rng),
		Acks: randInt(rng), Forwarded: rng.Intn(2) == 0,
	}
	for i := rng.Intn(3); i > 0; i-- {
		p.States = append(p.States, randBytes(rng))
		p.Peers = append(p.Peers, randString(rng))
		p.FailedRegions = append(p.FailedRegions, randRegion(rng))
		p.Spans = append(p.Spans, trace.Span{
			ID: rng.Uint64(), Parent: rng.Uint64(), Peer: randString(rng), Via: randString(rng),
			Region: randRegion(rng), Phase: randString(rng), R: randInt(rng), Depth: randInt(rng),
			Arrive: randInt(rng), Attempt: randInt(rng), Outcome: randString(rng),
			StateTuples: randInt(rng), AnswerTuples: randInt(rng), Plan: randString(rng),
		})
	}
	return p
}

// TestRoundTripProperty: any Call or Reply — spans, failed regions and
// mutation fields included — survives both framings exactly, and decoding
// into a struct that still holds another message gives the same result as
// decoding into a zero one.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dirtyCall, dirtyReply := randCall(rng), randReply(rng)
	for i := 0; i < 500; i++ {
		var buf bytes.Buffer
		call, reply := randCall(rng), randReply(rng)
		if err := WriteMessage(&buf, call); err != nil {
			t.Fatal(err)
		}
		if err := WriteMuxFrame(&buf, uint32(i), reply); err != nil {
			t.Fatal(err)
		}
		var gotCall Call
		if err := ReadMessage(&buf, &gotCall); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !reflect.DeepEqual(&gotCall, call) {
			t.Fatalf("call %d: got %+v, want %+v", i, gotCall, call)
		}
		stream, err := ReadMuxFrame(&buf, dirtyReply)
		if err != nil || stream != uint32(i) {
			t.Fatalf("reply %d: stream %d, err %v", i, stream, err)
		}
		if !reflect.DeepEqual(dirtyReply, reply) {
			t.Fatalf("reply %d into a dirty struct: got %+v, want %+v", i, dirtyReply, reply)
		}
		if err := decodeCall(appendCall(nil, call), dirtyCall); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dirtyCall, call) {
			t.Fatalf("call %d into a dirty struct: got %+v, want %+v", i, dirtyCall, call)
		}
	}
}

// TestEmptyDecodesAsNil pins the convention the cross-runtime equivalence
// suites rely on: an empty slice and a nil one are the same bytes, and both
// come back nil.
func TestEmptyDecodesAsNil(t *testing.T) {
	empty := &Reply{States: [][]byte{{}}, Answers: []dataset.Tuple{}, Peers: []string{},
		FailedRegions: []overlay.Region{{Boxes: []geom.Rect{}}}, Spans: []trace.Span{}}
	want := &Reply{States: [][]byte{nil}, FailedRegions: []overlay.Region{{}}}
	if !bytes.Equal(appendReply(nil, empty), appendReply(nil, want)) {
		t.Fatal("empty and nil slices encode differently")
	}
	var got Reply
	if err := decodeReply(appendReply(nil, empty), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestHostileLengthPrefix: a count that cannot fit in the bytes that follow
// is refused before anything is allocated for it.
func TestHostileLengthPrefix(t *testing.T) {
	body := make([]byte, 40)
	body[0] = TagReply
	binary.BigEndian.PutUint32(body[1:], 0) // no states
	binary.BigEndian.PutUint32(body[5:], 0xFFFFFFFF)
	var got Reply
	err := decodeReply(body, &got)
	if err == nil || !strings.Contains(err.Error(), "length prefix 4294967295 exceeds") {
		t.Fatalf("err = %v", err)
	}
	point := append([]byte{TagReply}, 0xFF, 0xFF, 0xFF, 0xFF)
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(point, TagReply)
		if r.Point() != nil || r.Finish() == nil {
			t.Fatal("hostile point count accepted")
		}
	}); allocs > 4 { // the error value and its text
		t.Fatalf("hostile prefix cost %v allocations", allocs)
	}
	for cut := 0; cut < len(body); cut++ {
		if decodeReply(body[:cut], &got) == nil {
			t.Fatalf("body cut to %d bytes decoded", cut)
		}
	}
}

func TestRejectsTrailingBytesWrongTagAndBadBool(t *testing.T) {
	call := appendCall(nil, sampleCall())
	var c Call
	if err := decodeCall(append(call[:len(call):len(call)], 0), &c); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v", err)
	}
	var p Reply
	if err := decodeReply(call, &p); err == nil || !strings.Contains(err.Error(), "want tag 0x81") {
		t.Fatalf("call decoded as reply: err = %v", err)
	}
	bad := append([]byte(nil), call...)
	bad[len(bad)-25] = 2 // Traced
	if err := decodeCall(bad, &c); err == nil || !strings.Contains(err.Error(), "bool byte") {
		t.Fatalf("bool byte 2: err = %v", err)
	}
	if err := WriteMessage(io.Discard, Call{}); err == nil {
		t.Fatal("a non-pointer message must be refused")
	}
}

func sampleCall() *Call {
	return &Call{
		QueryType: "topk",
		Params:    bytes.Repeat([]byte{7}, 64),
		Global:    bytes.Repeat([]byte{3}, 24),
		Restrict:  overlay.Whole(5),
		R:         2,
		Hops:      3,
	}
}

func sampleReply() *Reply {
	ts := make([]dataset.Tuple, 8)
	for i := range ts {
		ts[i] = dataset.Tuple{ID: uint64(i), Vec: geom.Point{0.1, 0.2, 0.3, 0.4, 0.5}}
	}
	return &Reply{
		States: [][]byte{bytes.Repeat([]byte{1}, 24)}, Answers: ts,
		Completion: 4, QueryMsgs: 9, StateMsgs: 3, TuplesSent: 11,
		Peers: []string{"p1", "p2", "p3"},
	}
}

// TestRoundTripAllocs bounds what one hop's framing costs: a call and its
// reply, written and read back.
func TestRoundTripAllocs(t *testing.T) {
	call := sampleCall()
	reply := &Reply{States: [][]byte{bytes.Repeat([]byte{1}, 17)}, Completion: 1, QueryMsgs: 1, Peers: []string{"p7"}}
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		var c Call
		var p Reply
		if WriteMuxFrame(&buf, 7, call) != nil || WriteMuxFrame(&buf, 7, reply) != nil {
			t.Fatal("write failed")
		}
		if _, err := ReadMuxFrame(&buf, &c); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMuxFrame(&buf, &p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 && !raceEnabled {
		t.Fatalf("call+reply round trip allocates %.0f times, want <= 16", allocs)
	}
}

func BenchmarkWriteCall(b *testing.B) {
	msg := sampleCall()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteReply(b *testing.B) {
	msg := sampleReply()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadReply(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, sampleReply()); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var reply Reply
		if err := ReadMessage(r, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeCall and FuzzDecodeReply: no body may panic the decoder, and a
// body it accepts is the one encoding of the value it produced. The seed
// corpora under testdata/fuzz are the golden frames.
func FuzzDecodeCall(f *testing.F) {
	f.Add(appendCall(nil, sampleCall()))
	f.Fuzz(func(t *testing.T, b []byte) {
		var c Call
		if decodeCall(b, &c) != nil {
			return
		}
		if again := appendCall(nil, &c); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x but re-encodes as %x", b, again)
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add(appendReply(nil, sampleReply()))
	f.Fuzz(func(t *testing.T, b []byte) {
		var p Reply
		if decodeReply(b, &p) != nil {
			return
		}
		if again := appendReply(nil, &p); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x but re-encodes as %x", b, again)
		}
	})
}
