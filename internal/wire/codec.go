// The binary codec of the hop path (DESIGN.md §11.2): Call, Reply and every
// query type's params/state payload share these primitives. The format is
// fixed-layout and big-endian — a leading tag byte, then the fields in
// declaration order; ints and IDs are 8 bytes, floats their IEEE-754 bits,
// bools one byte (0 or 1), and strings, blobs, points and lists carry a
// 4-byte count — so the bytes are a pure function of the value.
//
// Decode invariants, enforced by Reader: the tag byte must match; every count
// is checked against the bytes remaining before anything is allocated;
// trailing bytes are an error; a zero count decodes as nil; and a decode
// assigns every field of its target, so a reused struct cannot leak state
// from the previous message.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/overlay"
	"ripple/internal/trace"
)

// Tags open every encoded message and payload, so a body handed to the wrong
// decoder fails on its first byte. They sit in 0x80–0xF7, which no gob
// stream can open with (gob starts with a byte count: below 0x80, or 0xF8
// and up for a multi-byte one).
const (
	TagCall byte = 0x80 + iota
	TagReply
	TagTopKParams
	TagTopKState
	TagKNNParams
	TagKNNState
	TagSkylineParams
	TagSkylineState
	TagDiversifyParams
	TagDiversifyState
)

// AppendInt appends v as a signed 64-bit integer.
func AppendInt(dst []byte, v int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(int64(v)))
}

// AppendUint64 appends v.
func AppendUint64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendFloat appends v's IEEE-754 bits, so NaN payloads, infinities and the
// sign of zero survive exactly.
func AppendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendCount(dst []byte, n int) []byte { return binary.BigEndian.AppendUint32(dst, uint32(n)) }

// AppendBytes appends a length-prefixed blob.
func AppendBytes(dst, b []byte) []byte { return append(appendCount(dst, len(b)), b...) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte { return append(appendCount(dst, len(s)), s...) }

// appendList appends a count and then each element.
func appendList[T any](dst []byte, vs []T, elem func([]byte, T) []byte) []byte {
	dst = appendCount(dst, len(vs))
	for _, v := range vs {
		dst = elem(dst, v)
	}
	return dst
}

// AppendUint64s appends a counted list in the order given: a caller holding
// a set sorts first (ripple-vet's wiredet checks it does).
func AppendUint64s(dst []byte, vs []uint64) []byte { return appendList(dst, vs, AppendUint64) }

// AppendPoint appends a dimension count and the coordinates.
func AppendPoint(dst []byte, p geom.Point) []byte {
	dst = appendCount(dst, len(p))
	for _, v := range p {
		dst = AppendFloat(dst, v)
	}
	return dst
}

// AppendRect appends the two corners.
func AppendRect(dst []byte, r geom.Rect) []byte { return AppendPoint(AppendPoint(dst, r.Lo), r.Hi) }

// AppendRegion appends a counted list of boxes.
func AppendRegion(dst []byte, r overlay.Region) []byte { return appendList(dst, r.Boxes, AppendRect) }

// AppendTuple appends the ID and the vector.
func AppendTuple(dst []byte, t dataset.Tuple) []byte {
	return AppendPoint(AppendUint64(dst, t.ID), t.Vec)
}

// AppendTuples appends a counted list of tuples.
func AppendTuples(dst []byte, ts []dataset.Tuple) []byte { return appendList(dst, ts, AppendTuple) }

// AppendMetric appends a metric as one byte, 1 for L1 and 2 for L2: the two
// the query types accept on the wire.
func AppendMetric(dst []byte, m geom.Metric) ([]byte, error) {
	switch m.Name() {
	case "L1":
		return append(dst, 1), nil
	case "L2":
		return append(dst, 2), nil
	}
	return dst, fmt.Errorf("wire: metric %q not wire-encodable", m.Name())
}

// Reader decodes what the Append functions wrote. The first failure sticks:
// every later read returns a zero value, and Finish reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader opens a body that must start with tag.
func NewReader(b []byte, tag byte) Reader {
	switch {
	case len(b) == 0:
		return Reader{err: errors.New("wire: empty body")}
	case b[0] != tag:
		return Reader{err: fmt.Errorf("wire: body opens with byte %#02x, want tag %#02x: not this codec's format", b[0], tag)}
	}
	return Reader{b: b[1:]}
}

// Fail records a semantic decode error (an unknown enum value, say) unless
// an earlier one is already pending.
func (r *Reader) Fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Finish returns the first decode error, or an error if bytes are left over.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return r.err
}

// take consumes n bytes; nil means the read failed.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = fmt.Errorf("wire: truncated body: need %d bytes, %d remain", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// count reads a list length and verifies that that many elements of at least
// min bytes each can still follow, so a hostile prefix fails here — before
// the caller allocates for it. Dividing the remainder avoids overflow.
func (r *Reader) count(min int) int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(r.b)/min) {
		r.err = fmt.Errorf("wire: length prefix %d exceeds the %d bytes remaining", n, len(r.b))
		return 0
	}
	return int(n)
}

// Uint64 reads an 8-byte unsigned integer.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int reads a signed 64-bit integer.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Float reads IEEE-754 bits.
func (r *Reader) Float() float64 { return math.Float64frombits(r.Uint64()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and rejects anything but 0 and 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail("bool byte %#02x", v)
	}
	return v == 1
}

// Bytes reads a blob into fresh memory (the body's buffer is reused).
func (r *Reader) Bytes() []byte {
	b := r.take(r.count(1))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a string.
func (r *Reader) String() string { return string(r.take(r.count(1))) }

// Uint64s reads a counted list.
func (r *Reader) Uint64s() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// Point reads a point.
func (r *Reader) Point() geom.Point {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	p := make(geom.Point, n)
	for i := range p {
		p[i] = r.Float()
	}
	return p
}

// Rect reads two corners.
func (r *Reader) Rect() geom.Rect { return geom.Rect{Lo: r.Point(), Hi: r.Point()} }

// Region reads a counted list of boxes.
func (r *Reader) Region() overlay.Region {
	n := r.count(8) // a box is at least its two dimension counts
	if n == 0 {
		return overlay.Region{}
	}
	boxes := make([]geom.Rect, n)
	for i := range boxes {
		boxes[i] = r.Rect()
	}
	return overlay.Region{Boxes: boxes}
}

// Tuple reads an ID and a vector.
func (r *Reader) Tuple() dataset.Tuple { return dataset.Tuple{ID: r.Uint64(), Vec: r.Point()} }

// Tuples reads a counted list of tuples.
func (r *Reader) Tuples() []dataset.Tuple {
	n := r.count(12) // an ID and a dimension count
	if n == 0 {
		return nil
	}
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		ts[i] = r.Tuple()
	}
	return ts
}

// Metric reads a metric byte written by AppendMetric.
func (r *Reader) Metric() geom.Metric {
	switch v := r.Byte(); v {
	case 1:
		return geom.L1
	case 2:
		return geom.L2
	default:
		r.Fail("metric byte %#02x", v)
		return nil
	}
}

func appendCall(dst []byte, c *Call) []byte {
	dst = append(dst, TagCall)
	dst = AppendString(dst, c.QueryType)
	dst = AppendBytes(dst, c.Params)
	dst = AppendBytes(dst, c.Global)
	dst = AppendRegion(dst, c.Restrict)
	dst = AppendInt(dst, c.R)
	dst = AppendInt(dst, c.Hops)
	dst = AppendRegion(dst, c.Scope)
	dst = AppendString(dst, c.Op)
	dst = AppendTuple(dst, c.Tuple)
	dst = AppendString(dst, c.ActAs)
	dst = AppendBool(dst, c.Traced)
	dst = AppendUint64(dst, c.SpanID)
	dst = AppendUint64(dst, c.SpanParent)
	dst = AppendInt(dst, c.SpanDepth)
	return dst
}

func decodeCall(b []byte, c *Call) error {
	r := NewReader(b, TagCall)
	c.QueryType = r.String()
	c.Params = r.Bytes()
	c.Global = r.Bytes()
	c.Restrict = r.Region()
	c.R = r.Int()
	c.Hops = r.Int()
	c.Scope = r.Region()
	c.Op = r.String()
	c.Tuple = r.Tuple()
	c.ActAs = r.String()
	c.Traced = r.Bool()
	c.SpanID = r.Uint64()
	c.SpanParent = r.Uint64()
	c.SpanDepth = r.Int()
	return r.Finish()
}

func appendReply(dst []byte, p *Reply) []byte {
	dst = append(dst, TagReply)
	dst = appendList(dst, p.States, AppendBytes)
	dst = AppendTuples(dst, p.Answers)
	dst = AppendInt(dst, p.Completion)
	dst = AppendInt(dst, p.QueryMsgs)
	dst = AppendInt(dst, p.StateMsgs)
	dst = AppendInt(dst, p.TuplesSent)
	dst = appendList(dst, p.Peers, AppendString)
	dst = AppendString(dst, p.Error)
	dst = AppendBool(dst, p.Partial)
	dst = appendList(dst, p.FailedRegions, AppendRegion)
	dst = AppendInt(dst, p.Failures)
	dst = AppendInt(dst, p.Retries)
	dst = AppendInt(dst, p.TimedOut)
	dst = AppendInt(dst, p.Recovered)
	dst = AppendInt(dst, p.Failovers)
	dst = appendList(dst, p.Spans, appendSpan)
	dst = AppendBool(dst, p.CacheHit)
	dst = AppendString(dst, p.Plan)
	dst = AppendInt(dst, p.PlanR)
	dst = AppendInt(dst, p.Acks)
	dst = AppendBool(dst, p.Forwarded)
	return dst
}

// The lists below are decoded by explicit loops, not a generic helper taking
// the element reader as a func: that would make every Reader escape to the
// heap, one allocation per message.
func decodeReply(b []byte, p *Reply) error {
	r := NewReader(b, TagReply)
	p.States = nil
	if n := r.count(4); n > 0 {
		p.States = make([][]byte, n)
		for i := range p.States {
			p.States[i] = r.Bytes()
		}
	}
	p.Answers = r.Tuples()
	p.Completion = r.Int()
	p.QueryMsgs = r.Int()
	p.StateMsgs = r.Int()
	p.TuplesSent = r.Int()
	p.Peers = nil
	if n := r.count(4); n > 0 {
		p.Peers = make([]string, n)
		for i := range p.Peers {
			p.Peers[i] = r.String()
		}
	}
	p.Error = r.String()
	p.Partial = r.Bool()
	p.FailedRegions = nil
	if n := r.count(4); n > 0 {
		p.FailedRegions = make([]overlay.Region, n)
		for i := range p.FailedRegions {
			p.FailedRegions[i] = r.Region()
		}
	}
	p.Failures = r.Int()
	p.Retries = r.Int()
	p.TimedOut = r.Int()
	p.Recovered = r.Int()
	p.Failovers = r.Int()
	p.Spans = nil
	if n := r.count(spanMinBytes); n > 0 {
		p.Spans = make([]trace.Span, n)
		for i := range p.Spans {
			p.Spans[i] = readSpan(&r)
		}
	}
	p.CacheHit = r.Bool()
	p.Plan = r.String()
	p.PlanR = r.Int()
	p.Acks = r.Int()
	p.Forwarded = r.Bool()
	return r.Finish()
}

// spanMinBytes is an encoded span with every string and the region empty:
// eight 8-byte words and six 4-byte counts.
const spanMinBytes = 8*8 + 6*4

func appendSpan(dst []byte, s trace.Span) []byte {
	dst = AppendUint64(dst, s.ID)
	dst = AppendUint64(dst, s.Parent)
	dst = AppendString(dst, s.Peer)
	dst = AppendString(dst, s.Via)
	dst = AppendRegion(dst, s.Region)
	dst = AppendString(dst, s.Phase)
	dst = AppendInt(dst, s.R)
	dst = AppendInt(dst, s.Depth)
	dst = AppendInt(dst, s.Arrive)
	dst = AppendInt(dst, s.Attempt)
	dst = AppendString(dst, s.Outcome)
	dst = AppendInt(dst, s.StateTuples)
	dst = AppendInt(dst, s.AnswerTuples)
	dst = AppendString(dst, s.Plan)
	return dst
}

func readSpan(r *Reader) trace.Span {
	return trace.Span{
		ID: r.Uint64(), Parent: r.Uint64(), Peer: r.String(), Via: r.String(),
		Region: r.Region(), Phase: r.String(), R: r.Int(), Depth: r.Int(),
		Arrive: r.Int(), Attempt: r.Int(), Outcome: r.String(),
		StateTuples: r.Int(), AnswerTuples: r.Int(), Plan: r.String(),
	}
}

// appendMessage appends the encoding of a *Call or *Reply: the only
// messages peers exchange.
func appendMessage(dst []byte, msg interface{}) ([]byte, error) {
	switch m := msg.(type) {
	case *Call:
		return appendCall(dst, m), nil
	case *Reply:
		return appendReply(dst, m), nil
	}
	return dst, fmt.Errorf("wire: cannot encode %T: want *Call or *Reply", msg)
}

func decodeMessage(b []byte, msg interface{}) error {
	switch m := msg.(type) {
	case *Call:
		return decodeCall(b, m)
	case *Reply:
		return decodeReply(b, m)
	}
	return fmt.Errorf("wire: cannot decode into %T: want *Call or *Reply", msg)
}
