package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ripple/internal/overlay"
)

// The magic must decode as an over-limit legacy length prefix, or the sniff
// in netpeer could mistake a legacy frame for a hello.
func TestMuxMagicCannotBeALegacyPrefix(t *testing.T) {
	if muxMagic <= MaxFrame {
		t.Fatalf("muxMagic %#x must exceed MaxFrame %#x", muxMagic, MaxFrame)
	}
	var buf bytes.Buffer
	if err := WriteMuxHello(&buf, MuxVersion); err != nil {
		t.Fatal(err)
	}
	var prefix [4]byte
	copy(prefix[:], buf.Bytes())
	if !IsMuxPrefix(prefix) {
		t.Fatal("hello's first four bytes not recognised as the mux prefix")
	}
	// A legacy server reading the hello as a frame must reject it as
	// oversized — that rejection is what drives legacy fallback.
	var got Call
	err := ReadMessage(bytes.NewReader(buf.Bytes()), &got)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("legacy read of a hello: err = %v, want FrameSizeError", err)
	}
}

func TestMuxHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxHello(&buf, 7); err != nil {
		t.Fatal(err)
	}
	ver, err := ReadMuxHello(bytes.NewReader(buf.Bytes()))
	if err != nil || ver != 7 {
		t.Fatalf("hello round trip: ver=%d err=%v", ver, err)
	}
	// The server-side path: sniff the magic, then read the version word.
	r := bytes.NewReader(buf.Bytes()[4:])
	ver, err = ReadMuxVersion(r)
	if err != nil || ver != 7 {
		t.Fatalf("version after sniff: ver=%d err=%v", ver, err)
	}
}

func TestMuxFrameRoundTripOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	calls := map[uint32]*Call{
		42: {QueryType: "topk", R: 3, Restrict: overlay.Whole(2)},
		7:  {QueryType: "skyline", R: 0, Restrict: overlay.Whole(2)},
		1:  {QueryType: "diversify", Hops: 9, Restrict: overlay.Whole(2)},
	}
	for _, id := range []uint32{42, 7, 1} {
		if err := WriteMuxFrame(&buf, id, calls[id]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		var got Call
		id, err := ReadMuxFrame(&buf, &got)
		if err != nil {
			t.Fatal(err)
		}
		want := calls[id]
		if want == nil {
			t.Fatalf("frame %d carried unknown stream %d", i, id)
		}
		if got.QueryType != want.QueryType || got.R != want.R || got.Hops != want.Hops {
			t.Fatalf("stream %d: got %+v, want %+v", id, got, want)
		}
	}
}

// Payload bytes must be identical under either framing, so the negotiated
// protocol changes headers only.
func TestMuxFramePayloadMatchesLegacy(t *testing.T) {
	call := &Call{QueryType: "topk", Params: []byte{1, 2, 3}, Restrict: overlay.Whole(3), R: 5}
	var legacy, mux bytes.Buffer
	if err := WriteMessage(&legacy, call); err != nil {
		t.Fatal(err)
	}
	if err := WriteMuxFrame(&mux, 99, call); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes()[4:], mux.Bytes()[8:]) {
		t.Fatal("mux frame payload differs from legacy frame payload")
	}
	if n := binary.BigEndian.Uint32(mux.Bytes()[4:8]); int(n) != mux.Len()-8 {
		t.Fatalf("mux length word %d, want %d", n, mux.Len()-8)
	}
}

func TestReadMuxFrameOversizeKeepsStream(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 1234)
	binary.BigEndian.PutUint32(hdr[4:], MaxFrame+1)
	var got Reply
	stream, err := ReadMuxFrame(bytes.NewReader(hdr[:]), &got)
	var fse *FrameSizeError
	if !errors.As(err, &fse) || fse.Size != MaxFrame+1 {
		t.Fatalf("err = %v, want FrameSizeError{%d}", err, MaxFrame+1)
	}
	if stream != 1234 {
		t.Fatalf("stream = %d, want 1234 (needed to report the rejection)", stream)
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("error text %q should explain the limit", err)
	}
}

// A corrupt length prefix claiming a huge body must not cost a huge
// allocation when the stream dies early: growth tracks the bytes that
// actually arrive, one chunk at a time.
func TestReadMessageCorruptPrefixBoundedAllocation(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 32<<20) // claims 32 MiB, sends 10 bytes
	buf.Write(hdr[:])
	buf.WriteString("0123456789")
	var got Call
	err := ReadMessage(&buf, &got)
	if err == nil {
		t.Fatal("truncated 32 MiB claim must error")
	}
	allocated := testing.AllocsPerRun(20, func() {
		var inner bytes.Buffer
		inner.Write(hdr[:])
		inner.WriteString("0123456789")
		var c Call
		_ = ReadMessage(&inner, &c)
	})
	// The exact count is irrelevant; what matters is that the 32 MiB claim
	// didn't turn into 32 MiB of allocation. AllocsPerRun counts allocations,
	// so cap generously: a handful of chunk-sized buffers at most.
	if allocated > 16 {
		t.Fatalf("corrupt prefix cost %v allocations per read", allocated)
	}
}

func TestReadFrameBodyChunkedMatchesDirect(t *testing.T) {
	// Cross the chunk boundary so the incremental path runs.
	payload := make([]byte, frameChunk*2+frameChunk/2)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	got, err := readFrameBody(bytes.NewReader(payload), len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("chunked body read corrupted the payload")
	}
}

func TestOverloadedClassification(t *testing.T) {
	msg := Overloaded("peer p3: 32 calls executing and 128 queued")
	if !IsOverloaded(msg) {
		t.Fatal("Overloaded output not recognised")
	}
	if IsOverloaded("peer p3: panic: boom") {
		t.Fatal("processing error misclassified as overload")
	}
}

// FuzzMuxStream feeds a byte stream through the client side of a mux
// connection: a hello, then call frames until the first error. Nothing may
// panic, the hello must be the one encoding of its version, and every frame
// ReadMuxFrame accepts must re-encode through WriteMuxFrame to exactly the
// bytes it consumed. The committed seed under testdata/fuzz is the golden
// call frame behind a hello.
func FuzzMuxStream(f *testing.F) {
	var seed bytes.Buffer
	if WriteMuxHello(&seed, MuxVersion) != nil || WriteMuxFrame(&seed, 3, sampleCall()) != nil ||
		WriteMuxFrame(&seed, 9, &Call{QueryType: "skyline", Restrict: overlay.Whole(2)}) != nil {
		f.Fatal("seed encoding failed")
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		ver, err := ReadMuxHello(r)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if WriteMuxHello(&again, ver) != nil || !bytes.Equal(again.Bytes(), b[:8]) {
			t.Fatalf("accepted hello %x but re-encodes as %x", b[:8], again.Bytes())
		}
		for {
			start := len(b) - r.Len()
			var c Call
			stream, err := ReadMuxFrame(r, &c)
			if err != nil {
				return
			}
			again.Reset()
			if err := WriteMuxFrame(&again, stream, &c); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if consumed := b[start : len(b)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("accepted frame %x but re-encodes as %x", consumed, again.Bytes())
			}
		}
	})
}
