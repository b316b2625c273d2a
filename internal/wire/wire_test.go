package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/overlay"
)

func TestMessageRoundTrip(t *testing.T) {
	call := &Call{
		QueryType: "topk",
		Params:    []byte{1, 2, 3},
		Global:    []byte{4, 5},
		Restrict:  overlay.Whole(3),
		R:         7,
		Hops:      2,
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, call); err != nil {
		t.Fatal(err)
	}
	var got Call
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.QueryType != "topk" || got.R != 7 || got.Hops != 2 || len(got.Params) != 3 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if !got.Restrict.Contains(geom.Point{0.5, 0.5, 0.5}) {
		t.Fatal("region lost in transit")
	}
}

func TestReplyRoundTrip(t *testing.T) {
	reply := &Reply{
		States:     [][]byte{{1}, {2, 3}},
		Answers:    []dataset.Tuple{{ID: 9, Vec: geom.Point{0.1, 0.2}}},
		Completion: 5,
		QueryMsgs:  11,
		Peers:      []string{"a", "b"},
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, reply); err != nil {
		t.Fatal(err)
	}
	var got Reply
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Completion != 5 || got.QueryMsgs != 11 || len(got.States) != 2 || got.Answers[0].ID != 9 {
		t.Fatalf("reply round trip lost fields: %+v", got)
	}
}

func TestReadMessageEOF(t *testing.T) {
	var got Call
	if err := ReadMessage(strings.NewReader(""), &got); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestReadMessageOversizeFrame(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var got Call
	err := ReadMessage(bytes.NewReader(hdr[:]), &got)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame: err = %v", err)
	}
}

func TestReadMessageTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	var got Call
	if err := ReadMessage(&buf, &got); err == nil {
		t.Fatal("truncated body must error")
	}
}

// The codec round-trip tests live in codecs_test.go (package wire_test): the
// query packages import wire for the codec primitives, so an in-package test
// cannot import them back.
