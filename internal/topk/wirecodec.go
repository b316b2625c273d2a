package topk

import (
	"fmt"
	"math"

	"ripple/internal/core"
	"ripple/internal/wire"
)

// WireCodec serialises top-k queries and states for networked peers; it
// implements the wire.Codec interface. Supported scorers: Linear, Peak and
// Nearest (L1 or L2).
type WireCodec struct{}

// Scorer kinds on the wire. Params are tag, K, kind, then the kind's
// fields: weights | centre, sharpness | centre, metric.
const (
	kindLinear byte = iota + 1
	kindPeak
	kindNearest
)

// Name implements wire.Codec.
func (WireCodec) Name() string { return "topk" }

// EncodeParams builds the wire descriptor for a query.
func (WireCodec) EncodeParams(f Scorer, k int) ([]byte, error) {
	b := wire.AppendInt([]byte{wire.TagTopKParams}, k)
	switch s := f.(type) {
	case Linear:
		return wire.AppendPoint(append(b, kindLinear), s.Weights), nil
	case Peak:
		return wire.AppendFloat(wire.AppendPoint(append(b, kindPeak), s.Center), s.Sharpness), nil
	case Nearest:
		return wire.AppendMetric(wire.AppendPoint(append(b, kindNearest), s.Center), s.Metric)
	default:
		return nil, fmt.Errorf("topk: scorer %T not wire-encodable", f)
	}
}

// NewProcessor implements wire.Codec.
func (WireCodec) NewProcessor(params []byte) (core.Processor, error) {
	r := wire.NewReader(params, wire.TagTopKParams)
	k := r.Int()
	var f Scorer
	switch kind := r.Byte(); kind {
	case kindLinear:
		f = Linear{Weights: r.Point()}
	case kindPeak:
		f = Peak{Center: r.Point(), Sharpness: r.Float()}
	case kindNearest:
		f = Nearest{Center: r.Point(), Metric: r.Metric()}
	default:
		r.Fail("unknown scorer kind %d", kind)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("topk: decode params: %w", err)
	}
	return &Processor{F: f, K: k}, nil
}

// EncodeState implements wire.Codec: tag, m, τ.
func (WireCodec) EncodeState(s core.State) ([]byte, error) {
	st := s.(state)
	b := make([]byte, 0, 17)
	return wire.AppendFloat(wire.AppendInt(append(b, wire.TagTopKState), st.m), st.tau), nil
}

// DecodeState implements wire.Codec. Empty input yields the neutral state.
func (WireCodec) DecodeState(b []byte) (core.State, error) {
	if len(b) == 0 {
		return state{m: 0, tau: math.Inf(1)}, nil
	}
	r := wire.NewReader(b, wire.TagTopKState)
	st := state{m: r.Int(), tau: r.Float()}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("topk: decode state: %w", err)
	}
	return st, nil
}
