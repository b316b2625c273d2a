package overlay

import (
	"testing"

	"ripple/internal/dataset"
	"ripple/internal/geom"
)

// stripeNet builds an n-peer network with 1-D striped zones, peer IDs taken
// from ids in the given (deliberately unsorted) order, so placement tests
// exercise the ring sort.
func stripeNet(ids []string) *stubNet {
	n := len(ids)
	nodes := make([]*stubNode, n)
	for i, id := range ids {
		lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
		nodes[i] = &stubNode{id: id, zone: FromRect(geom.Rect{Lo: geom.Point{lo, 0}, Hi: geom.Point{hi, 1}})}
	}
	return &stubNet{nodes: nodes, dims: 2}
}

func TestBuildReplicasPlacement(t *testing.T) {
	net := stripeNet([]string{"c", "a", "e", "b", "d"})
	m := BuildReplicas(net, 3)

	if m.Factor() != 3 {
		t.Fatalf("factor = %d, want 3", m.Factor())
	}
	// Ring is by sorted ID: a b c d e. Each primary's replicas are its two
	// ring successors.
	want := map[string][]string{
		"a": {"b", "c"}, "b": {"c", "d"}, "c": {"d", "e"}, "d": {"e", "a"}, "e": {"a", "b"},
	}
	for p, reps := range want {
		got := m.Replicas(p)
		if len(got) != len(reps) {
			t.Fatalf("Replicas(%s) = %d peers, want %d", p, len(got), len(reps))
		}
		for i := range reps {
			if got[i].ID() != reps[i] {
				t.Fatalf("Replicas(%s)[%d] = %s, want %s", p, i, got[i].ID(), reps[i])
			}
		}
	}
	// Balance: every peer holds exactly factor-1 shares.
	held := make(map[string]int)
	for p := range want {
		for _, rep := range m.Replicas(p) {
			held[rep.ID()]++
		}
	}
	for id, c := range held {
		if c != 2 {
			t.Fatalf("peer %s holds %d shares, want 2", id, c)
		}
	}
	if err := CheckReplication(net, m); err != nil {
		t.Fatalf("CheckReplication: %v", err)
	}
}

func TestBuildReplicasEdgeFactors(t *testing.T) {
	net := stripeNet([]string{"a", "b", "c"})
	for _, factor := range []int{0, 1} {
		m := BuildReplicas(net, factor)
		if m.Factor() != 1 && factor != 0 {
			t.Fatalf("factor %d: Factor() = %d", factor, m.Factor())
		}
		if reps := m.Replicas("a"); len(reps) != 0 {
			t.Fatalf("factor %d: Replicas(a) = %d peers, want 0", factor, len(reps))
		}
		if err := CheckReplication(net, m); err != nil {
			t.Fatalf("factor %d: CheckReplication: %v", factor, err)
		}
	}
	// Factor beyond the network size caps at size-1 replicas.
	m := BuildReplicas(net, 10)
	if reps := m.Replicas("b"); len(reps) != 2 {
		t.Fatalf("oversized factor: Replicas(b) = %d peers, want 2", len(reps))
	}
	if err := CheckReplication(net, m); err != nil {
		t.Fatalf("oversized factor: CheckReplication: %v", err)
	}
	// A nil map is the no-replication placement everywhere.
	var nilMap *ReplicaMap
	if nilMap.Factor() != 1 || nilMap.Replicas("a") != nil || nilMap.ReplicaSet(FromRect(geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}})) != nil {
		t.Fatal("nil ReplicaMap must behave as factor 1")
	}
}

func TestCheckReplicationRejectsTampered(t *testing.T) {
	net := stripeNet([]string{"a", "b", "c", "d"})
	m := BuildReplicas(net, 2)
	// Swap one primary's replica for itself: distinctness must fail.
	m.replicas["a"] = []Node{net.nodes[0]}
	if err := CheckReplication(net, m); err == nil {
		t.Fatal("CheckReplication accepted a self-replica")
	}
}

func TestReplicaSetCoversIntersectingZones(t *testing.T) {
	net := stripeNet([]string{"a", "b", "c", "d"})
	m := BuildReplicas(net, 2)
	// A region covering only the first two stripes: replicas of a and b.
	region := FromRect(geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{0.45, 1}})
	got := m.ReplicaSet(region)
	if len(got) != 2 || got[0].ID() != "b" || got[1].ID() != "c" {
		ids := make([]string, len(got))
		for i, w := range got {
			ids[i] = w.ID()
		}
		t.Fatalf("ReplicaSet = %v, want [b c]", ids)
	}
}

func TestActingNodeDelegatesToPrimary(t *testing.T) {
	net := stripeNet([]string{"a", "b"})
	primary, via := net.nodes[0], net.nodes[1]
	primary.tuples = []dataset.Tuple{{ID: 1, Vec: geom.Point{0.1, 0.5}}}
	primary.links = []Link{{To: via, Region: via.zone}}

	act := ActingNode{Primary: primary, Via: via}
	if act.ID() != "a" || act.Zone().String() != primary.zone.String() {
		t.Fatal("ActingNode must present the primary's identity and zone")
	}
	if len(act.Links()) != 1 || len(act.Tuples()) != 1 {
		t.Fatal("ActingNode must expose the primary's links and tuples")
	}
	if PhysicalID(act) != "b" {
		t.Fatalf("PhysicalID(acting) = %s, want b (the replica)", PhysicalID(act))
	}
	if PhysicalID(primary) != "a" {
		t.Fatalf("PhysicalID(plain) = %s, want a", PhysicalID(primary))
	}
}

func TestCanonicalRegionsSortsAndDedups(t *testing.T) {
	r1 := FromRect(geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{0.5, 1}})
	r2 := FromRect(geom.Rect{Lo: geom.Point{0.5, 0}, Hi: geom.Point{1, 1}})
	in := []Region{r2, r1, r2, r1, r2}
	got := CanonicalRegions(in)
	if len(got) != 2 {
		t.Fatalf("CanonicalRegions kept %d regions, want 2", len(got))
	}
	if got[0].String() > got[1].String() {
		t.Fatal("CanonicalRegions output not sorted")
	}
	// Idempotence and order-independence: any permutation canonicalises the
	// same way.
	again := CanonicalRegions([]Region{r1, r2, r1})
	for i := range got {
		if got[i].String() != again[i].String() {
			t.Fatal("CanonicalRegions is not order-independent")
		}
	}
	if out := CanonicalRegions(nil); len(out) != 0 {
		t.Fatal("CanonicalRegions(nil) must be empty")
	}
}
