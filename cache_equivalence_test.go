// Cross-runtime result-cache equivalence: a cached answer must be
// byte-identical to a freshly computed one. For seeded random overlays,
// every query family and both runtimes (structural engine, TCP deployment),
// the canonical wire encoding of a cache hit must equal the uncached
// engine's — and a mutation must make the very next query fresh
// (the z-order invalidation contract), while faults must never seed the
// cache with a degraded answer. This is the property that makes the cache
// safe to flip on in production: it can only change how fast a repeated
// query returns, never what it returns.
package ripple_test

import (
	"bytes"
	"testing"
	"time"

	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/skyline"
	"ripple/internal/topk"

	"ripple/internal/diversify"
)

func cachedTCPFleet(t *testing.T, n *midas.Network, inj *faults.Injector) (map[string]string, []*netpeer.Server) {
	t.Helper()
	opts := netpeer.Options{Logf: func(string, ...interface{}) {}, CacheSize: 8 << 20, Faults: inj}
	if inj.Enabled() {
		opts.Retry = netpeer.RetryPolicy{MaxRetries: 0, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}
	}
	servers, addrs, err := netpeer.DeployOpts(n, opts,
		topk.WireCodec{}, skyline.WireCodec{}, diversify.WireCodec{}, knn.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	return addrs, servers
}

// TestCachedAnswersByteIdenticalAcrossRuntimes: for each query family and
// ripple radius, a fill followed by a hit in both runtimes; every arm's
// canonical encoding must equal the uncached engine's at the same radius.
// The radius is part of the cache key — fast and slow propagation emit
// different candidate sets — so the TCP fleet's cache, which persists across
// the r loop, must miss on the first query of each radius rather than serve
// the other radius's fill.
func TestCachedAnswersByteIdenticalAcrossRuntimes(t *testing.T) {
	n := storageNet(3)
	init := n.Peers()[5]
	addrs, _ := cachedTCPFleet(t, n, nil)

	for _, tc := range storageCases(t) {
		for _, r := range []int{0, 1 << 20} {
			key := cache.Key(tc.name, tc.params, 3, r, overlay.Region{})
			want := cache.EncodeAnswers(core.RunOpts(init, tc.proc, r, core.Options{}).Answers)

			// Engine: fresh cache per r, fill then hit.
			c := cache.New(cache.Options{MaxBytes: 1 << 20})
			fill := core.RunOpts(init, tc.proc, r, core.Options{Cache: c, CacheKey: key})
			hit := core.RunOpts(init, tc.proc, r, core.Options{Cache: c, CacheKey: key})
			if fill.CacheHit || !hit.CacheHit {
				t.Fatalf("%s r=%d: engine fill/hit = %t/%t, want false/true", tc.name, r, fill.CacheHit, hit.CacheHit)
			}
			for arm, res := range map[string]*core.Result{"fill": fill, "hit": hit} {
				if !bytes.Equal(cache.EncodeAnswers(res.Answers), want) {
					t.Fatalf("%s r=%d: engine %s answer not byte-identical to uncached", tc.name, r, arm)
				}
			}

			// TCP: the fleet's shared per-peer cache must miss (the other
			// radius's fill has a different key) and then hit.
			for qi, wantHit := range []bool{false, true} {
				res, err := netpeer.QueryDetailed(addrs[init.ID()], tc.name, tc.params, 3, r, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if res.CacheHit != wantHit {
					t.Fatalf("%s r=%d query %d: tcp CacheHit = %t, want %t (key includes r)", tc.name, r, qi, res.CacheHit, wantHit)
				}
				if !bytes.Equal(cache.EncodeAnswers(res.Answers), want) {
					t.Fatalf("%s r=%d query %d: tcp answer not byte-identical to uncached engine", tc.name, r, qi)
				}
			}
		}
	}
}

// TestCacheMutateThenQueryInProcess: the structural engine honours the
// invalidation contract — after an insert or a delete plus InvalidatePoint,
// the next run must recompute and see the change; re-filling resumes hits.
// (TestMutationInvalidatesCachesFleetWide in internal/netpeer is the TCP arm.)
func TestCacheMutateThenQueryInProcess(t *testing.T) {
	n := storageNet(7)
	init := n.Peers()[3]
	center := geom.Point{0.4, 0.6, 0.3}
	proc := &knn.Processor{Center: center, K: 5}
	params, err := (knn.WireCodec{}).EncodeParams(center, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key("knn", params, 3, 0, overlay.Region{})
	tup := dataset.Tuple{ID: 1 << 40, Vec: center.Clone()}

	c := cache.New(cache.Options{MaxBytes: 1 << 20})
	opts := core.Options{Cache: c, CacheKey: key}
	core.RunOpts(init, proc, 0, opts)
	if !core.RunOpts(init, proc, 0, opts).CacheHit {
		t.Fatal("engine: repeated query not cached")
	}

	n.Insert(tup)
	c.InvalidatePoint(tup.Vec)
	res := core.RunOpts(init, proc, 0, opts)
	if res.CacheHit {
		t.Fatal("engine: query served from cache across a mutation")
	}
	if !hasAnswerID(res.Answers, tup.ID) {
		t.Fatal("engine: inserted tuple (distance 0) missing from refreshed answers")
	}

	// Same fill/invalidate cycle through the delete path.
	if !core.RunOpts(init, proc, 0, opts).CacheHit {
		t.Fatal("engine: refilled query not cached")
	}
	if !n.Delete(tup) {
		t.Fatal("overlay delete failed")
	}
	c.InvalidatePoint(tup.Vec)
	res = core.RunOpts(init, proc, 0, opts)
	if res.CacheHit {
		t.Fatal("engine: query served from cache across a delete")
	}
	if hasAnswerID(res.Answers, tup.ID) {
		t.Fatal("engine: deleted tuple still answered")
	}
}

// TestCacheNeverServesStaleUnderFaults: on a faulty fleet, partial answers
// must never seed the cache — every cache hit must be byte-identical to the
// fault-free ground truth, and no hit may be marked partial.
func TestCacheNeverServesStaleUnderFaults(t *testing.T) {
	n := storageNet(3)
	center := geom.Point{0.4, 0.6, 0.3}
	proc := &knn.Processor{Center: center, K: 5}
	params, err := (knn.WireCodec{}).EncodeParams(center, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The candidate set a query returns depends on its initiator (the initial
	// state carries the initiator's local pruning bound), so ground truth is
	// per-peer: a fault-free engine run from each.
	want := make(map[string][]byte)
	for _, p := range n.Peers() {
		want[p.ID()] = cache.EncodeAnswers(core.RunOpts(p, proc, 0, core.Options{}).Answers)
	}

	// A query crosses ~2 fault-checked messages per peer, so the per-message
	// drop rate must stay low enough that some queries complete cleanly (and
	// fill the cache) while others degrade — both arms must be exercised.
	// Rotating the initiator keeps fault-exposed fills flowing: each peer's
	// cache fills independently, and a peer whose fill came back partial
	// retries from scratch on its next turn.
	inj := faults.New(faults.Config{Seed: 5, DropRate: 0.03})
	addrs, _ := cachedTCPFleet(t, n, inj)

	peers := n.Peers()
	partials, hits := 0, 0
	for i := 0; i < 60; i++ {
		id := peers[i%len(peers)].ID()
		res, err := netpeer.QueryDetailed(addrs[id], "knn", params, 3, 0, 10*time.Second)
		if err != nil {
			continue // a dropped initiator hop surfaces as an error, not staleness
		}
		if res.Partial() {
			partials++
			if res.CacheHit {
				t.Fatal("cache served a partial answer")
			}
			continue
		}
		if res.CacheHit {
			hits++
			if !bytes.Equal(cache.EncodeAnswers(res.Answers), want[id]) {
				t.Fatal("cache hit differs from fault-free ground truth; a degraded answer was cached")
			}
		}
	}
	if partials == 0 || hits == 0 {
		t.Fatalf("vacuous fault run: %d partials, %d hits over 60 queries (tune the seed or rate if this fires)", partials, hits)
	}
}

func hasAnswerID(ts []dataset.Tuple, id uint64) bool {
	for _, tt := range ts {
		if tt.ID == id {
			return true
		}
	}
	return false
}
