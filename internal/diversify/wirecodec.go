package diversify

import (
	"fmt"
	"math"
	"sort"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/wire"
)

// WireCodec serialises single-tuple diversification queries and states for
// networked peers; it implements the wire.Codec interface. The query carries
// the query point, λ, the two metrics, the base set O, the exclusion list
// and the initial threshold, in that order after the tag; states are the φ
// threshold.
type WireCodec struct{}

// Name implements wire.Codec.
func (WireCodec) Name() string { return "diversify" }

// EncodeParams builds the wire descriptor for one single-tuple query.
func (WireCodec) EncodeParams(q Query, base []dataset.Tuple, exclude map[uint64]bool, tau0 float64) ([]byte, error) {
	ids := make([]uint64, 0, len(exclude))
	for id := range exclude {
		ids = append(ids, id)
	}
	// Sort so the wire bytes are a pure function of the query: map iteration
	// order would otherwise make byte-identical replays impossible.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	b := wire.AppendFloat(wire.AppendPoint([]byte{wire.TagDiversifyParams}, q.Q), q.Lambda)
	b, err := wire.AppendMetric(b, q.Dr)
	if err == nil {
		b, err = wire.AppendMetric(b, q.Dv)
	}
	if err != nil {
		return nil, fmt.Errorf("diversify: %w", err)
	}
	b = wire.AppendTuples(b, base)
	b = wire.AppendUint64s(b, ids)
	return wire.AppendFloat(b, tau0), nil
}

// NewProcessor implements wire.Codec.
func (WireCodec) NewProcessor(params []byte) (core.Processor, error) {
	r := wire.NewReader(params, wire.TagDiversifyParams)
	p := &Processor{Query: Query{Q: r.Point(), Lambda: r.Float(), Dr: r.Metric(), Dv: r.Metric()}, Base: r.Tuples()}
	ids := r.Uint64s()
	p.Tau0 = r.Float()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("diversify: decode params: %w", err)
	}
	p.Exclude = make(map[uint64]bool, len(ids))
	for _, id := range ids {
		p.Exclude[id] = true
	}
	return p, nil
}

// EncodeState implements wire.Codec: tag, φ.
func (WireCodec) EncodeState(s core.State) ([]byte, error) {
	b := make([]byte, 0, 9)
	return wire.AppendFloat(append(b, wire.TagDiversifyState), float64(s.(state))), nil
}

// DecodeState implements wire.Codec. Empty input yields +Inf (note that the
// networked caller should pass the real Tau0 through the params, since the
// engine-side initial state comes from the processor).
func (WireCodec) DecodeState(b []byte) (core.State, error) {
	if len(b) == 0 {
		return state(math.Inf(1)), nil
	}
	r := wire.NewReader(b, wire.TagDiversifyState)
	v := r.Float()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("diversify: decode state: %w", err)
	}
	return state(v), nil
}
