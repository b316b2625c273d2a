package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile fetched from a peer's /debug/pprof/profile is a gzipped
// protobuf (pprof's profile.proto). The harness needs only stacks and their
// sample values, so it decodes the handful of fields below itself rather than
// depend on a protobuf library.

// stackSample is one profile sample: function names leaf first, and its
// weight (CPU nanoseconds when the profile carries them, else sample count).
type stackSample struct {
	stack []string
	value int64
}

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either a varint value or a
// length-delimited payload. Fixed-width fields are skipped over.
func (p *protoBuf) next() (field int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		payload, p.b = p.b[:n], p.b[n:]
	case 5:
		err = p.skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, payload, err
}

func (p *protoBuf) skip(n int) error {
	if n > len(p.b) {
		return io.ErrUnexpectedEOF
	}
	p.b = p.b[n:]
	return nil
}

// repeatedUint appends a repeated integer field's values, packed or not.
func repeatedUint(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	p := protoBuf{payload}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzipped) pprof profile into its samples.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		raws     []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string-table index
		strs     []string
	)
	p := protoBuf{data}
	for len(p.b) > 0 {
		field, _, payload, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var rs rawSample
			m := protoBuf{payload}
			for len(m.b) > 0 {
				f, v, pl, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					rs.locs, err = repeatedUint(rs.locs, v, pl)
				case 2:
					rs.values, err = repeatedUint(rs.values, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			raws = append(raws, rs)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := protoBuf{payload}
			for len(m.b) > 0 {
				f, v, pl, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoBuf{pl}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			m := protoBuf{payload}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := make([]stackSample, 0, len(raws))
	for _, rs := range raws {
		if len(rs.values) == 0 {
			continue
		}
		s := stackSample{value: int64(rs.values[len(rs.values)-1])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// layerPrefixes maps function-name prefixes to this repo's layers. The
// standard-library packages a layer drives are charged to it: gob and
// reflect do the wire codec's work, net and the syscall packages netpeer's.
var layerPrefixes = []struct{ prefix, layer string }{
	{"ripple/internal/wire.", "wire"},
	{"encoding/gob.", "wire"},
	{"encoding/binary.", "wire"},
	{"reflect.", "wire"},
	{"ripple/internal/netpeer.", "netpeer"},
	{"ripple/internal/faults.", "netpeer"},
	{"net.", "netpeer"},
	{"internal/poll.", "netpeer"},
	{"syscall.", "netpeer"},
	{"internal/runtime/syscall.", "netpeer"},
	{"runtime/internal/syscall.", "netpeer"},
	{"ripple/internal/storage.", "storage"},
	{"ripple/internal/cache.", "cache"},
	{"ripple/internal/zorder.", "cache"},
	{"ripple/internal/plan.", "plan"},
	{"ripple/internal/topk.", "topk"},
	{"ripple/internal/knn.", "knn"},
	{"ripple/internal/skyline.", "skyline"},
	{"ripple/internal/trace.", "trace"},
	{"ripple/internal/metrics.", "metrics"},
	{"net/http.", "metrics"},
	{"runtime/pprof.", "metrics"},
}

// Stacks with no frame in any layer are the runtime's own: garbage
// collection workers, or the scheduler looking for work.
var (
	gcFrames    = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m", "runtime.mstart", "runtime.sysmon"}
)

// layerOf attributes one stack: the frame nearest the leaf that belongs to a
// layer's packages decides.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, lp := range layerPrefixes {
			if strings.HasPrefix(fn, lp.prefix) {
				return lp.layer
			}
		}
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		for _, g := range schedFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.sched"
			}
		}
	}
	return "other"
}

// cpuShares folds samples into each layer's share of the total.
func cpuShares(samples []stackSample) map[string]float64 {
	by := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		by[layerOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range by {
			by[k] /= total
		}
	}
	return by
}
