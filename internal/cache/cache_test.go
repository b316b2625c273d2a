package cache

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/metrics"
	"ripple/internal/overlay"
)

func region(lo, hi []float64) overlay.Region {
	return overlay.FromRect(geom.Rect{Lo: lo, Hi: hi})
}

func testCache(t *testing.T, opts Options) (*Cache, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	opts.Now = func() time.Time { return now }
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 1 << 20
	}
	c := New(opts)
	if c == nil {
		t.Fatal("New returned nil for a positive budget")
	}
	return c, &now
}

func TestGetPutRoundTrip(t *testing.T) {
	c, _ := testCache(t, Options{})
	key := Key("topk", []byte("params"), 2, 0, overlay.Region{})
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	g := c.Begin()
	c.Put(key, []byte("value"), 2, overlay.Region{}, g)
	got, ok := c.Get(key)
	if !ok || string(got) != "value" {
		t.Fatalf("Get = %q, %v; want value, true", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", s)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, now := testCache(t, Options{TTL: time.Second})
	key := Key("topk", nil, 2, 0, overlay.Region{})
	c.Put(key, []byte("v"), 2, overlay.Region{}, c.Begin())
	if _, ok := c.Get(key); !ok {
		t.Fatal("miss before expiry")
	}
	*now = now.Add(2 * time.Second)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after TTL expiry")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v; want 1 eviction, 0 entries", s)
	}
}

func TestInvalidatePointHitsCoveringRegions(t *testing.T) {
	c, _ := testCache(t, Options{})
	hot := region([]float64{0, 0}, []float64{0.25, 0.25})
	cold := region([]float64{0.5, 0.5}, []float64{0.75, 0.75})
	hotKey := Key("topk", []byte("a"), 2, 0, hot)
	coldKey := Key("topk", []byte("a"), 2, 0, cold)
	wholeKey := Key("topk", []byte("a"), 2, 0, overlay.Region{})
	c.Put(hotKey, []byte("hot"), 2, hot, c.Begin())
	c.Put(coldKey, []byte("cold"), 2, cold, c.Begin())
	c.Put(wholeKey, []byte("whole"), 2, overlay.Region{}, c.Begin())

	c.InvalidatePoint(geom.Point{0.1, 0.1})

	if _, ok := c.Get(hotKey); ok {
		t.Fatal("entry covering the mutated point survived invalidation")
	}
	if _, ok := c.Get(wholeKey); ok {
		t.Fatal("whole-domain entry survived invalidation")
	}
	if _, ok := c.Get(coldKey); !ok {
		t.Fatal("entry over a disjoint region was invalidated")
	}
	if s := c.Stats(); s.Invalidations != 2 {
		t.Fatalf("invalidations = %d; want 2", s.Invalidations)
	}
}

func TestPutRejectsStaleFill(t *testing.T) {
	c, _ := testCache(t, Options{})
	scope := region([]float64{0, 0}, []float64{0.5, 0.5})
	key := Key("knn", nil, 2, 0, scope)
	g := c.Begin() // query starts...
	c.InvalidatePoint(geom.Point{0.2, 0.2})
	c.Put(key, []byte("pre-mutation result"), 2, scope, g) // ...and fills late
	if _, ok := c.Get(key); ok {
		t.Fatal("pre-mutation result entered the cache after the mutation")
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := testCache(t, Options{MaxBytes: 2 * (entryOverhead + 40), Shards: 1})
	mk := func(i int) []byte { return Key("topk", []byte{byte(i)}, 2, 0, overlay.Region{}) }
	c.Put(mk(1), []byte("v1"), 2, overlay.Region{}, c.Begin())
	c.Put(mk(2), []byte("v2"), 2, overlay.Region{}, c.Begin())
	if _, ok := c.Get(mk(1)); !ok { // touch 1: now 2 is LRU
		t.Fatal("entry 1 missing before eviction")
	}
	c.Put(mk(3), []byte("v3"), 2, overlay.Region{}, c.Begin())
	if _, ok := c.Get(mk(2)); ok {
		t.Fatal("LRU entry 2 survived over-budget Put")
	}
	if _, ok := c.Get(mk(1)); !ok {
		t.Fatal("recently used entry 1 was evicted")
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("stats = %+v; want evictions > 0", s)
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("nil cache hit")
	}
	c.Put([]byte("k"), []byte("v"), 2, overlay.Region{}, c.Begin())
	c.InvalidatePoint(geom.Point{0.5, 0.5})
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
	if New(Options{MaxBytes: 0}) != nil {
		t.Fatal("New(MaxBytes=0) should return the nil disabled cache")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	a := geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{0.5, 0.5}}
	b := geom.Rect{Lo: geom.Point{0.5, 0.5}, Hi: geom.Point{1, 1}}
	k1 := Key("topk", []byte("p"), 2, 0, overlay.Region{Boxes: []geom.Rect{a, b}})
	k2 := Key("topk", []byte("p"), 2, 0, overlay.Region{Boxes: []geom.Rect{b, a}})
	if !bytes.Equal(k1, k2) {
		t.Fatal("box order changed the canonical key")
	}
	if bytes.Equal(k1, Key("skyline", []byte("p"), 2, 0, overlay.Region{Boxes: []geom.Rect{a, b}})) {
		t.Fatal("query type not part of the key")
	}
	if bytes.Equal(k1, Key("topk", []byte("q"), 2, 0, overlay.Region{Boxes: []geom.Rect{a, b}})) {
		t.Fatal("params not part of the key")
	}
	if bytes.Equal(k1, Key("topk", []byte("p"), 2, 0, overlay.Region{})) {
		t.Fatal("scope not part of the key")
	}
	if bytes.Equal(k1, Key("topk", []byte("p"), 2, 2, overlay.Region{Boxes: []geom.Rect{a, b}})) {
		t.Fatal("ripple radius not part of the key; radii return different candidate sets")
	}
}

func TestAnswerCodecCanonical(t *testing.T) {
	ts := []dataset.Tuple{
		{ID: 9, Vec: geom.Point{0.9, 0.1}},
		{ID: 3, Vec: geom.Point{0.3, 0.7}},
		{ID: 9, Vec: geom.Point{0.9, 0.1}}, // duplicate
	}
	rev := []dataset.Tuple{ts[1], ts[0]}
	if !bytes.Equal(EncodeAnswers(ts), EncodeAnswers(rev)) {
		t.Fatal("answer order or duplicates changed the canonical encoding")
	}
	got, err := DecodeAnswers(EncodeAnswers(ts))
	if err != nil {
		t.Fatal(err)
	}
	want := []dataset.Tuple{ts[1], ts[0]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v; want %v", got, want)
	}
	if _, err := DecodeAnswers([]byte{0, 0}); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

// FuzzDecodeAnswers: DecodeAnswers never panics, and every payload it
// accepts is canonical — it re-encodes byte-identically. The seed corpus
// (testdata/fuzz/FuzzDecodeAnswers) holds empty, truncated, hostile-count,
// unsorted, duplicate-ID and real encodings.
func FuzzDecodeAnswers(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, err := DecodeAnswers(b)
		if err != nil {
			return
		}
		if again := EncodeAnswers(ts); !bytes.Equal(again, b) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, b)
		}
	})
}

func TestFootprintWholeDomainIsRoot(t *testing.T) {
	cells := footprint(3, overlay.Region{})
	if len(cells) != 1 || cells[0].free != uint8(3*20) || cells[0].prefix != 0 {
		t.Fatalf("whole-domain footprint = %+v; want the single root cell", cells)
	}
}

func TestFootprintBounded(t *testing.T) {
	for d := 1; d <= 6; d++ {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for i := range lo {
			lo[i], hi[i] = 0.1, 0.9
		}
		cells := footprint(d, overlay.FromRect(geom.Rect{Lo: lo, Hi: hi}))
		if len(cells) == 0 || len(cells) > 64 {
			t.Fatalf("d=%d: footprint has %d cells; want 1..64", d, len(cells))
		}
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := metrics.New()
	now := time.Unix(0, 0)
	c := New(Options{MaxBytes: 1 << 20, Metrics: reg, Now: func() time.Time { return now }})
	key := Key("topk", nil, 2, 0, overlay.Region{})
	c.Get(key)
	c.Put(key, []byte("v"), 2, overlay.Region{}, c.Begin())
	c.Get(key)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ripple_cache_hits_total 1", "ripple_cache_misses_total 1", "ripple_cache_bytes"} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Fatalf("metrics output missing %q:\n%s", name, buf.String())
		}
	}
}

func TestGenerationTableOverflowInvalidatesConservatively(t *testing.T) {
	c, _ := testCache(t, Options{})
	key := Key("topk", nil, 2, 0, overlay.Region{})
	c.Put(key, []byte("v"), 2, overlay.Region{}, c.Begin())
	c.cellMu.Lock()
	for i := 0; len(c.cells) <= maxCells; i++ { // simulate table growth
		c.cells[cellKey{dims: 5, free: 0, prefix: uint64(i)}] = 1
	}
	c.cellMu.Unlock()
	c.InvalidatePoint(geom.Point{0.9, 0.9}) // triggers the reset
	if _, ok := c.Get(key); ok {
		t.Fatal("entry predating the generation-table reset survived")
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(Options{MaxBytes: 1 << 20})
	scope := region([]float64{0, 0}, []float64{0.5, 0.5})
	key := Key("topk", []byte("p"), 2, 0, scope)
	c.Put(key, bytes.Repeat([]byte("x"), 256), 2, scope, c.Begin())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkInvalidatePoint(b *testing.B) {
	c := New(Options{MaxBytes: 1 << 20})
	p := geom.Point{0.3, 0.4, 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InvalidatePoint(p)
	}
}

func ExampleKey() {
	k := Key("topk", []byte{1, 2}, 2, 0, overlay.Region{})
	fmt.Println(len(k) > 0)
	// Output: true
}
