// Cross-runtime trace equivalence: the structural engine and a real TCP
// deployment must reconstruct structurally identical hop trees for the same
// overlay, query and ripple parameter — same parent/child span relation, same
// restriction regions, same mode phases, and (under a shared fault seed) the
// same lost subtrees. Span IDs are deterministic hashes of
// the traversal path, so the comparison is exact, not just shape-isomorphic.
package ripple_test

import (
	"testing"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/topk"
	"ripple/internal/trace"
)

// traceOverlay builds the shared fixture: a 24-peer MIDAS overlay with
// uniform data and a pruning top-k processor, so the hop tree is a proper
// subtree of the overlay (pruning must agree across runtimes too).
func traceOverlay() (*midas.Network, *topk.Processor, int) {
	n := midas.Build(24, midas.Options{Dims: 3, Seed: 5})
	overlay.Load(n, dataset.Uniform(600, 3, 5))
	return n, &topk.Processor{F: topk.UniformLinear(3), K: 5}, 3
}

// spanEdges flattens a tree into its exact (id, parent, peer) relation.
func spanEdges(tr *trace.Tree) map[uint64]string {
	edges := make(map[uint64]string)
	tr.Walk(func(n *trace.Node) {
		edges[n.ID] = n.Peer
	})
	return edges
}

func TestTraceEquivalenceAcrossRuntimes(t *testing.T) {
	n, proc, _ := traceOverlay()
	init := n.Peers()[7]

	for _, r := range []int{0, 2, 1 << 20} {
		engine := core.RunOpts(init, proc, r, core.Options{Trace: true})
		if engine.Trace == nil || engine.Trace.Root == nil {
			t.Fatalf("r=%d: engine produced no trace", r)
		}
		tcp := tcpReplicated(t, n, init.ID(), proc.K, r, 1, nil).Trace

		want := engine.Trace.Canonical()
		if got := tcp.Canonical(); got != want {
			t.Fatalf("r=%d: tcp tree differs from engine:\nengine: %s\ntcp:    %s", r, want, got)
		}
		// Span identities (not just shapes) must match: IDs are path hashes.
		we, ge := spanEdges(engine.Trace), spanEdges(tcp)
		if len(ge) != len(we) {
			t.Fatalf("r=%d: tcp has %d spans, engine %d", r, len(ge), len(we))
		}
		for id, peer := range we {
			if ge[id] != peer {
				t.Fatalf("r=%d: tcp span %x on peer %q, engine has %q", r, id, ge[id], peer)
			}
		}
		// A traced run must not change the answer or the cost accounting.
		plain := core.Run(init, proc, r)
		if engine.Stats.Latency != plain.Stats.Latency || engine.Stats.QueryMsgs != plain.Stats.QueryMsgs {
			t.Fatalf("r=%d: tracing changed the engine's costs", r)
		}
	}
}

// clientTrace runs the traced query over a loopback deployment through a
// warm netpeer.Client. sequential disables multiplexing fleet-wide (servers
// ack hellos with version 0 and call each other over the legacy pooled
// path), so the two settings exercise entirely different transports.
func clientTrace(t *testing.T, n *midas.Network, initID string, k, r int, sequential bool) *trace.Tree {
	t.Helper()
	opts := netpeer.Options{Logf: func(string, ...interface{}) {}, DisableMux: sequential}
	servers, addrs, err := netpeer.DeployOpts(n, opts, topk.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	params, err := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(3), k)
	if err != nil {
		t.Fatal(err)
	}
	var c *netpeer.Client
	if sequential {
		c = netpeer.NewSequentialClient(addrs[initID], 0)
	} else {
		c = netpeer.NewClient(addrs[initID], 0)
	}
	defer c.Close()
	res, err := c.QueryTraced("topk", params, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// TestTraceEquivalenceUnderMux: multiplexing changes how calls share
// connections, never what the protocol does — the hop tree a muxed fleet
// reconstructs must be canonically identical, span for span, to the
// structural engine's and to a fleet pinned to the sequential transport.
func TestTraceEquivalenceUnderMux(t *testing.T) {
	n, proc, _ := traceOverlay()
	init := n.Peers()[7]

	for _, r := range []int{0, 2, 1 << 20} {
		engine := core.RunOpts(init, proc, r, core.Options{Trace: true})
		if engine.Trace == nil || engine.Trace.Root == nil {
			t.Fatalf("r=%d: engine produced no trace", r)
		}
		want := engine.Trace.Canonical()
		muxed := clientTrace(t, n, init.ID(), proc.K, r, false)
		seq := clientTrace(t, n, init.ID(), proc.K, r, true)
		if got := muxed.Canonical(); got != want {
			t.Fatalf("r=%d: muxed tree differs from engine:\nengine: %s\nmux:    %s", r, want, got)
		}
		if got := seq.Canonical(); got != want {
			t.Fatalf("r=%d: sequential tree differs from engine:\nengine: %s\nseq:    %s", r, want, got)
		}
		we := spanEdges(engine.Trace)
		for name, tr := range map[string]*trace.Tree{"mux": muxed, "seq": seq} {
			ge := spanEdges(tr)
			if len(ge) != len(we) {
				t.Fatalf("r=%d: %s has %d spans, engine %d", r, name, len(ge), len(we))
			}
			for id, peer := range we {
				if ge[id] != peer {
					t.Fatalf("r=%d: %s span %x on peer %q, engine has %q", r, name, id, ge[id], peer)
				}
			}
		}
	}
}

func TestTraceEquivalenceUnderFaults(t *testing.T) {
	n, proc, _ := traceOverlay()
	init := n.Peers()[7]
	inj := faults.New(faults.Config{Seed: 3, DropRate: 0.25})

	for _, r := range []int{0, 1 << 20} {
		engine := core.RunOpts(init, proc, r, core.Options{Trace: true, Faults: inj})
		tcp := tcpReplicated(t, n, init.ID(), proc.K, r, 1, inj)

		lost := 0
		engine.Trace.Walk(func(nd *trace.Node) {
			if trace.Lost(nd.Outcome) {
				lost++
			}
		})
		if lost == 0 {
			t.Fatalf("r=%d: fault seed produced no losses; test is vacuous", r)
		}
		want := engine.Trace.Canonical()
		if got := tcp.Trace.Canonical(); got != want {
			t.Fatalf("r=%d: tcp tree differs under faults:\nengine: %s\ntcp:    %s", r, want, got)
		}
		// The lost subtrees bound the partial answer on both runtimes alike.
		if !engine.Partial() || !tcp.Partial() {
			t.Fatalf("r=%d: losses recorded but result not marked partial", r)
		}
	}
}
