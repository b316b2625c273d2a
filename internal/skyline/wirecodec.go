package skyline

import (
	"fmt"

	"ripple/internal/core"
	"ripple/internal/geom"
	"ripple/internal/wire"
)

// WireCodec serialises skyline queries and states for networked peers; it
// implements the wire.Codec interface. A full-space skyline query carries no
// parameters; a constrained query carries its constraint box. States are
// partial skylines (tuple sets).
type WireCodec struct{}

// Name implements wire.Codec.
func (WireCodec) Name() string { return "skyline" }

// EncodeParams returns the query descriptor: nil for a full-space skyline,
// tag and box for a constrained one.
func (WireCodec) EncodeParams(constraint *geom.Rect) ([]byte, error) {
	if constraint == nil {
		return nil, nil
	}
	return wire.AppendRect([]byte{wire.TagSkylineParams}, *constraint), nil
}

// NewProcessor implements wire.Codec.
func (WireCodec) NewProcessor(params []byte) (core.Processor, error) {
	if len(params) == 0 {
		return &Processor{}, nil
	}
	r := wire.NewReader(params, wire.TagSkylineParams)
	box := r.Rect()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("skyline: decode constraint: %w", err)
	}
	return &Processor{Constraint: &box}, nil
}

// EncodeState implements wire.Codec: tag, then the tuples.
func (WireCodec) EncodeState(s core.State) ([]byte, error) {
	return wire.AppendTuples([]byte{wire.TagSkylineState}, s.(state)), nil
}

// DecodeState implements wire.Codec. Empty input yields the neutral state.
func (WireCodec) DecodeState(b []byte) (core.State, error) {
	if len(b) == 0 {
		return state(nil), nil
	}
	r := wire.NewReader(b, wire.TagSkylineState)
	ts := r.Tuples()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("skyline: decode state: %w", err)
	}
	return state(ts), nil
}
