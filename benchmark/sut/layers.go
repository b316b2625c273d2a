package sut

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ripple/internal/cache"
	"ripple/internal/core"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/plan"
	"ripple/internal/skyline"
	"ripple/internal/storage"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// Tracer receives the spans the probes record around each call into a
// layer. Begin opens a span and returns the function that ends it; a span
// begun while another is open is that span's child. Query marks the start of
// the next probed query.
type Tracer interface {
	Query()
	Begin(layer, name string) (end func())
}

// ProbeInput is what the in-process layer probes run over: the same dataset,
// plan seed and sampled operations the fleet just served.
type ProbeInput struct {
	Data       []Tuple
	Peers      int
	PlanSeed   int64
	Initiators []int   // overlay node indexes the loadgen's connections used
	Queries    []Query // sampled reads, in the workload's mix
	Inserts    []Tuple // sampled insert tuples; empty on read-only workloads
	CacheBytes int64   // the peers' -cache-size
	ServeArgs  []string
}

// FamilyCounts are the paper's logical costs of one family's probed queries,
// summed; they are exact and repeat for a seed.
type FamilyCounts struct {
	Queries, Hops, Msgs, Peers, TuplesSent int
}

// ProbeCounts are the exact figures the probes return beside their spans.
type ProbeCounts struct {
	Family          map[string]*FamilyCounts
	CallBytes       int
	ReplyBytes      int
	RoundtripAllocs int
	RPCAllocs       int
	IndexNodes      int
	IndexHeight     int
}

func codecFor(family string) wire.Codec {
	switch family {
	case TopK:
		return topk.WireCodec{}
	case KNN:
		return knn.WireCodec{}
	}
	return skyline.WireCodec{}
}

// storageKind is the engine a ripple-serve started with these arguments
// uses: its -storage flag, else the default with RIPPLE_STORAGE scrubbed.
func storageKind(serveArgs []string) (storage.Kind, error) {
	for i, a := range serveArgs {
		if (a == "-storage" || a == "--storage") && i+1 < len(serveArgs) {
			return storage.ParseKind(serveArgs[i+1])
		}
	}
	return storage.KindScan, nil
}

// allocsPerRun counts heap allocations of one call of fn, the way
// testing.AllocsPerRun does: one processor, a warm-up call, an average that
// truncates.
func allocsPerRun(runs int, fn func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int((after.Mallocs - before.Mallocs) / uint64(runs))
}

// RunProbes times calls into each layer's public functions on the inputs the
// fleet served, single-threaded, with the fleet gone. Every call is one span;
// the exact counts come back in ProbeCounts.
func RunProbes(tr Tracer, in ProbeInput) (*ProbeCounts, error) {
	if len(in.Queries) == 0 || len(in.Initiators) == 0 {
		return nil, fmt.Errorf("sut: probes need sampled queries and initiators")
	}
	kind, err := storageKind(in.ServeArgs)
	if err != nil {
		return nil, err
	}
	dims := len(in.Data[0].Vec)
	counts := &ProbeCounts{Family: map[string]*FamilyCounts{}}

	// midas: the overlay ripple-plan builds, from the same tuples and seed.
	data := append([]Tuple(nil), in.Data...)
	end := tr.Begin("midas", "build")
	net := midas.BuildWithData(in.Peers, midas.Options{Dims: dims, Seed: in.PlanSeed, Storage: kind}, data)
	end()
	nodes := net.Nodes()
	for _, n := range nodes {
		storage.Of(n) // build every share's store before anything is timed
	}
	st := storage.Of(nodes[in.Initiators[0]]).Stats()
	counts.IndexNodes, counts.IndexHeight = st.Nodes, st.Height

	// storage: building one share's store, and what one write pays today —
	// a copy of the share plus a rebuild.
	share := nodes[in.Initiators[0]].Tuples()
	for i := 0; i < 5; i++ {
		cp := append([]Tuple(nil), share...)
		end := tr.Begin("storage", "build")
		storage.New(kind, cp)
		end()
	}
	for i := 0; i < 5; i++ {
		end := tr.Begin("storage", "rebuild")
		cp := make([]Tuple, len(share)+1)
		copy(cp, share)
		cp[len(share)] = share[0]
		storage.New(kind, cp)
		end()
	}

	// cache.New returns nil, a valid disabled cache, when the peers run none.
	rc := cache.New(cache.Options{MaxBytes: in.CacheBytes})
	pl := plan.New(plan.Options{})

	var sampleCall *wire.Call
	var sampleReply *wire.Reply
	for qi, q := range in.Queries {
		tr.Query()
		endQuery := tr.Begin("loadgen", "probe")
		init := nodes[in.Initiators[qi%len(in.Initiators)]]
		codec := codecFor(q.Family)
		params, err := encodeParams(q)
		if err != nil {
			return nil, err
		}
		scope := scopeRegion(q.Scope)

		// The family's processor: construct, state codec, merge.
		end := tr.Begin(q.Family, "construct")
		proc, err := codec.NewProcessor(params)
		end()
		if err != nil {
			return nil, err
		}

		// plan and cache are consulted once per root query.
		pq := plan.Query{Family: q.Family, K: q.K, Dims: dims, Degree: len(init.Links()), Local: storage.Of(init).Stats()}
		end = tr.Begin("plan", "choose")
		dec := pl.Choose(pq)
		end()
		end = tr.Begin("plan", "observe")
		pl.Observe(pq, dec.R, 3, 16)
		end()

		// core: Algorithm 3 with no network, and the paper's counts.
		r := q.R
		if r < 0 {
			r = 0 // r=auto resolves on the live peer; the static count is the fast one
		}
		end = tr.Begin("core", "run")
		res := core.RunOpts(init, proc, r, core.Options{Scope: scope})
		end()
		fc := counts.Family[q.Family]
		if fc == nil {
			fc = &FamilyCounts{}
			counts.Family[q.Family] = fc
		}
		fc.Queries++
		fc.Hops += res.Stats.Latency
		fc.Msgs += res.Stats.Messages()
		fc.Peers += res.Stats.PeersReached()
		fc.TuplesSent += res.Stats.TuplesSent

		if rc != nil {
			key := cache.Key(q.Family, params, dims, r, scope)
			end = tr.Begin("cache", "fill")
			gen := rc.Begin()
			rc.Put(key, cache.EncodeAnswers(res.Answers), dims, scope, gen)
			end()
			end = tr.Begin("cache", "lookup")
			val, ok := rc.Get(cache.Key(q.Family, params, dims, r, scope))
			if ok {
				_, err = cache.DecodeAnswers(val)
			}
			end()
			if !ok || err != nil {
				return nil, fmt.Errorf("sut: cache probe lost its own entry (%v)", err)
			}
		}

		// One peer visit, as a peer one hop from the initiator pays it: the
		// initiator's local state arrives as the global state.
		pInit := overlay.Restricted(init, scope)
		initLocal := proc.LocalState(pInit, proc.InitialState())
		global := proc.GlobalState(pInit, proc.InitialState(), initLocal)
		var states []core.State
		var visited overlay.Node
		var visitLocal core.State
		for _, l := range init.Links() {
			if !scope.IsEmpty() && l.Region.Intersect(scope).IsEmpty() {
				continue
			}
			w := overlay.Restricted(l.To, scope)
			endVisit := tr.Begin("core", "visit")
			end := tr.Begin(q.Family, "construct")
			vproc, err := codec.NewProcessor(params)
			end()
			if err != nil {
				return nil, err
			}
			end = tr.Begin("storage", "local")
			local := vproc.LocalState(w, global)
			vproc.LocalAnswer(w, local)
			end()
			end = tr.Begin(q.Family, "state_codec")
			enc, err := codec.EncodeState(local)
			if err == nil {
				_, err = codec.DecodeState(enc)
			}
			end()
			endVisit()
			if err != nil {
				return nil, err
			}
			states = append(states, local)
			visited, visitLocal = l.To, local
		}
		end = tr.Begin(q.Family, "merge")
		proc.MergeStates(pInit, append([]core.State{initLocal}, states...))
		end()

		// wire: a representative child call and its reply, through the mux
		// framing peers use between each other.
		if visited != nil {
			encGlobal, err := codec.EncodeState(global)
			if err != nil {
				return nil, err
			}
			encLocal, err := codec.EncodeState(visitLocal)
			if err != nil {
				return nil, err
			}
			pv := overlay.Restricted(visited, scope)
			call := &wire.Call{QueryType: q.Family, Params: params, Global: encGlobal,
				Restrict: visited.Zone(), Scope: scope, Hops: 1}
			reply := &wire.Reply{States: [][]byte{encLocal}, Answers: proc.LocalAnswer(pv, visitLocal),
				Completion: 1, QueryMsgs: 1, Peers: []string{visited.ID()}}
			var buf bytes.Buffer
			end = tr.Begin("wire", "call_encode")
			err = wire.WriteMuxFrame(&buf, 7, call)
			end()
			if err != nil {
				return nil, err
			}
			counts.CallBytes += buf.Len()
			var gotCall wire.Call
			end = tr.Begin("wire", "call_decode")
			_, err = wire.ReadMuxFrame(&buf, &gotCall)
			end()
			if err != nil {
				return nil, err
			}
			buf.Reset()
			end = tr.Begin("wire", "reply_encode")
			err = wire.WriteMuxFrame(&buf, 7, reply)
			end()
			if err != nil {
				return nil, err
			}
			counts.ReplyBytes += buf.Len()
			var gotReply wire.Reply
			end = tr.Begin("wire", "reply_decode")
			_, err = wire.ReadMuxFrame(&buf, &gotReply)
			end()
			if err != nil {
				return nil, err
			}
			sampleCall, sampleReply = call, reply
		}
		endQuery()
	}
	counts.CallBytes /= len(in.Queries)
	counts.ReplyBytes /= len(in.Queries)

	if rc != nil {
		for _, t := range in.Inserts {
			end := tr.Begin("cache", "invalidate")
			rc.InvalidatePoint(geom.Point(t.Vec))
			end()
		}
	}

	if sampleCall != nil {
		var buf bytes.Buffer
		counts.RoundtripAllocs = allocsPerRun(100, func() {
			buf.Reset()
			var c wire.Call
			var r wire.Reply
			// Encoding into and decoding from a bytes.Buffer cannot fail on
			// messages that already made the round trip above.
			_ = wire.WriteMuxFrame(&buf, 7, sampleCall)
			_, _ = wire.ReadMuxFrame(&buf, &c)
			_ = wire.WriteMuxFrame(&buf, 7, sampleReply)
			_, _ = wire.ReadMuxFrame(&buf, &r)
		})
	}

	if err := probeRPC(tr, in.Queries[0], dims, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// probeRPC measures the floor cost of a hop: a warm client call to a
// one-peer server holding an empty share, over loopback in this process.
func probeRPC(tr Tracer, q Query, dims int, counts *ProbeCounts) error {
	opts := netpeer.DefaultOptions()
	opts.Logf = func(string, ...interface{}) {}
	srv := netpeer.NewServerOpts(netpeer.Config{ID: "probe", Zone: overlay.Whole(dims)}, opts,
		topk.WireCodec{}, knn.WireCodec{}, skyline.WireCodec{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c := netpeer.NewClient(addr, 5*time.Second)
	defer c.Close()
	q.Scope = nil
	params, err := encodeParams(q)
	if err != nil {
		return err
	}
	call := func() error {
		_, err := c.QueryDetailed(q.Family, params, dims, 0)
		return err
	}
	for i := 0; i < 50; i++ { // warm the connection and the codec pools
		if err := call(); err != nil {
			return err
		}
	}
	for i := 0; i < 300; i++ {
		end := tr.Begin("netpeer", "rpc")
		err := call()
		end()
		if err != nil {
			return err
		}
	}
	var callErr error
	counts.RPCAllocs = allocsPerRun(100, func() {
		if err := call(); err != nil {
			callErr = err
		}
	})
	return callErr
}
