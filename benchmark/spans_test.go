package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Self time is a span's duration minus the part its children cover;
// overlapping children are not subtracted twice, and a child's own children
// do not touch the grandparent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{SpanID: 1, StartNS: 0, EndNS: 100},
		{SpanID: 2, ParentID: 1, StartNS: 10, EndNS: 40},
		{SpanID: 3, ParentID: 1, StartNS: 30, EndNS: 60}, // overlaps span 2 by 10
		{SpanID: 4, ParentID: 3, StartNS: 35, EndNS: 55},
		{SpanID: 5, ParentID: 1, StartNS: 90, EndNS: 120}, // runs past its parent
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30, 3: 10, 4: 20, 5: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestSpanLogNestsAndWrites(t *testing.T) {
	l := newSpanLog()
	l.Query()
	endOuter := l.Begin("core", "visit")
	endInner := l.Begin("storage", "local")
	endInner()
	endOuter()
	l.Query()
	l.Begin("wire", "call_encode")()

	if l.spans[1].ParentID != l.spans[0].SpanID || l.spans[0].ParentID != 0 || l.spans[2].ParentID != 0 {
		t.Fatalf("parents: %+v", l.spans)
	}
	if l.spans[0].QueryID != 1 || l.spans[2].QueryID != 2 {
		t.Fatalf("query ids: %+v", l.spans)
	}
	by := selfByName(l.spans)
	if len(by["storage.local"]) != 1 || len(by["core.visit"]) != 1 || len(by["wire.call_encode"]) != 1 {
		t.Fatalf("selfByName: %v", by)
	}

	path := filepath.Join(t.TempDir(), "out", "w.spans.jsonl")
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"query_id", "span_id", "parent_id", "layer", "name", "start_ns", "end_ns"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d lacks %q", n, k)
			}
		}
		if len(m) != 7 {
			t.Errorf("line %d has %d keys, want 7", n, len(m))
		}
	}
	if n != 3 {
		t.Errorf("%d lines written, want 3", n)
	}
}
