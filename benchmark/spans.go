package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one probed query share query_id; parent_id 0 marks a root.
type span struct {
	QueryID  int    `json:"query_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the run ends. It
// implements sut.Tracer for the single-threaded layer probes: a span begun
// while another is open is that span's child.
type spanLog struct {
	epoch time.Time
	spans []span
	open  []int // indexes into spans of the spans not yet ended
	query int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// Query starts a new probed query; later spans carry its id.
func (l *spanLog) Query() { l.query++ }

// Begin opens a span and returns the function that ends it.
func (l *spanLog) Begin(layer, name string) func() {
	var parent int64
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].SpanID
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{QueryID: l.query, SpanID: int64(i + 1), ParentID: parent, Layer: layer, Name: name})
	l.open = append(l.open, i)
	l.spans[i].StartNS = time.Since(l.epoch).Nanoseconds()
	return func() {
		l.spans[i].EndNS = time.Since(l.epoch).Nanoseconds()
		l.open = l.open[:len(l.open)-1]
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upTo), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.SpanID] = s.EndNS - s.StartNS - covered
	}
	return out
}

// selfByName groups self times, in microseconds, by "layer.name".
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		k := s.Layer + "." + s.Name
		out[k] = append(out[k], float64(self[s.SpanID])/1e3)
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
