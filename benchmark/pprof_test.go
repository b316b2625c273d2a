package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"strings"
	"testing"
)

// pbuf hand-encodes the few protobuf shapes a pprof profile uses.
type pbuf struct{ bytes.Buffer }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pbuf) uintField(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pbuf) bytesField(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func packed(vs ...uint64) []byte {
	var p pbuf
	for _, v := range vs {
		p.varint(v)
	}
	return p.Bytes()
}

// syntheticProfile has three functions in a chain main -> gob.encode ->
// mallocgc and a scheduler stack; sample values are [count, nanoseconds].
func syntheticProfile(packLocations bool) []byte {
	var prof pbuf
	strs := []string{"", "runtime.mallocgc", "encoding/gob.(*Encoder).Encode", "ripple/internal/netpeer.(*Server).process", "runtime.findRunnable", "runtime.schedule"}
	sample := func(value uint64, locs ...uint64) {
		var s pbuf
		if packLocations {
			s.bytesField(1, packed(locs...))
		} else {
			for _, l := range locs {
				s.uintField(1, l)
			}
		}
		s.bytesField(2, packed(value/10, value))
		prof.bytesField(2, s.Bytes())
	}
	sample(300, 1, 2, 3) // mallocgc <- gob <- netpeer: gob is nearest the leaf, so wire
	sample(500, 3)       // netpeer itself
	sample(200, 4, 5)    // scheduler
	for id := uint64(1); id <= 5; id++ {
		var line, loc, fn pbuf
		line.uintField(1, id)
		loc.uintField(1, id)
		loc.uintField(3, 0x1000+id)
		loc.bytesField(4, line.Bytes())
		prof.bytesField(4, loc.Bytes())
		fn.uintField(1, id)
		fn.uintField(2, id)
		prof.bytesField(5, fn.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	prof.uintField(12, 10000000) // period: a field the parser skips
	return prof.Bytes()
}

func TestParseProfileSynthetic(t *testing.T) {
	for _, pack := range []bool{true, false} {
		raw := syntheticProfile(pack)
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		zw.Write(raw)
		zw.Close()
		for _, data := range [][]byte{raw, zipped.Bytes()} {
			samples, err := parseProfile(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != 3 || samples[0].value != 300 || len(samples[0].stack) != 3 || samples[0].stack[0] != "runtime.mallocgc" {
				t.Fatalf("samples = %+v", samples)
			}
			shares := cpuShares(samples)
			for layer, want := range map[string]float64{"wire": 0.3, "netpeer": 0.5, "runtime.sched": 0.2} {
				if math.Abs(shares[layer]-want) > 1e-9 {
					t.Errorf("share of %s = %v, want %v (all: %v)", layer, shares[layer], want, shares)
				}
			}
		}
	}
	if _, err := parseProfile([]byte{0x12, 0xff}); err == nil {
		t.Error("a truncated profile must not parse")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"wire", []string{"runtime.memmove", "reflect.Value.Set", "encoding/gob.decodeStruct", "ripple/internal/wire.ReadMuxFrame", "ripple/internal/netpeer.(*muxConn).readLoop"}},
		{"netpeer", []string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "ripple/internal/wire.WriteMuxFrame"}},
		{"storage", []string{"ripple/internal/geom.Point.Dominates", "ripple/internal/storage.(*ScanStore).Ascend", "ripple/internal/topk.(*Processor).LocalState"}},
		{"topk", []string{"sort.Slice", "ripple/internal/topk.(*Processor).MergeStates", "ripple/internal/netpeer.(*Server).processQuery"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"runtime.sched", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"other", []string{"main.main", "runtime.main"}},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack[0], got, c.want)
		}
	}
}

// The committed fixture is a real CPU profile of one ripple-serve peer under
// the fanout_cpu workload.
func TestParseProfileFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/peer_cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("only %d samples in the fixture", len(samples))
	}
	named := 0
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with value %d", s.value)
		}
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "ripple/internal/") {
				named++
				break
			}
		}
	}
	if named == 0 {
		t.Error("no stack in the fixture passes through ripple/internal: symbol names were not resolved")
	}
	shares := cpuShares(samples)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["wire"] <= 0 || shares["netpeer"] <= 0 {
		t.Errorf("a peer serving fanout_cpu spends time in wire and netpeer; shares: %v", shares)
	}
}
