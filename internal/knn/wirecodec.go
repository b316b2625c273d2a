package knn

import (
	"fmt"
	"math"

	"ripple/internal/core"
	"ripple/internal/geom"
	"ripple/internal/wire"
)

// WireCodec serialises kNN queries and states for networked peers; it
// implements the wire.Codec interface.
type WireCodec struct{}

// Name implements wire.Codec.
func (WireCodec) Name() string { return "knn" }

// EncodeParams builds the wire descriptor for a query: tag, K, centre,
// metric. A nil metric encodes as Euclidean.
func (WireCodec) EncodeParams(center geom.Point, k int, m geom.Metric) ([]byte, error) {
	if m == nil {
		m = geom.L2
	}
	b, err := wire.AppendMetric(wire.AppendPoint(wire.AppendInt([]byte{wire.TagKNNParams}, k), center), m)
	if err != nil {
		return nil, fmt.Errorf("knn: %w", err)
	}
	return b, nil
}

// NewProcessor implements wire.Codec.
func (WireCodec) NewProcessor(params []byte) (core.Processor, error) {
	r := wire.NewReader(params, wire.TagKNNParams)
	p := &Processor{K: r.Int(), Center: r.Point(), Metric: r.Metric()}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("knn: decode params: %w", err)
	}
	return p, nil
}

// EncodeState implements wire.Codec: tag, m, ρ.
func (WireCodec) EncodeState(s core.State) ([]byte, error) {
	st := s.(state)
	b := make([]byte, 0, 17)
	return wire.AppendFloat(wire.AppendInt(append(b, wire.TagKNNState), st.m), st.rho), nil
}

// DecodeState implements wire.Codec. Empty input yields the neutral state.
func (WireCodec) DecodeState(b []byte) (core.State, error) {
	if len(b) == 0 {
		return state{m: 0, rho: math.Inf(-1)}, nil
	}
	r := wire.NewReader(b, wire.TagKNNState)
	st := state{m: r.Int(), rho: r.Float()}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("knn: decode state: %w", err)
	}
	return st, nil
}
