// Zone replication. RIPPLE's overlays are replication-free by construction:
// each zone's tuples live on exactly one peer, so a dead peer is a hole in
// the answer (Result.FailedRegions). The ReplicaMap adds the redundancy layer
// the recovery protocol (DESIGN.md §13) fails over to: each zone's tuple set
// is mirrored onto R−1 deterministic replica peers, chosen successor-style on
// the canonical ID ring, so every runtime — and every peer of a distributed
// deployment — derives the identical placement with no coordination.
//
// Replication is a lookup structure over an existing overlay, not a new
// overlay: zones, links and routing are untouched. A replica serves a lost
// peer's zone by *acting as* that peer (ActingNode), executing the primary's
// exact links, zone and tuples, which preserves the restriction-partition
// exactly-once property — the recovered subtree is the very subtree the
// primary would have executed.
package overlay

import (
	"sort"

	"ripple/internal/dataset"
	"ripple/internal/storage"
)

// ReplicaMap is the deterministic placement of zone replicas over a network
// snapshot. It is immutable after construction; rebuild it after churn.
type ReplicaMap struct {
	factor   int
	ring     []Node            // all peers sorted by ID (the placement ring)
	pos      map[string]int    // peer ID -> ring position
	replicas map[string][]Node // primary ID -> its R−1 replicas, ring order
}

// BuildReplicas computes the replica placement for every peer of n with the
// given replication factor (factor ≤ 1 means no replication). The replicas of
// a primary are its factor−1 distinct successors on the ring of peers sorted
// by ID — deterministic, overlay-generic, and balanced: every peer is a
// replica for exactly factor−1 primaries (capped by network size).
func BuildReplicas(n Network, factor int) *ReplicaMap {
	if factor < 1 {
		factor = 1
	}
	ring := append([]Node(nil), n.Nodes()...)
	sort.Slice(ring, func(i, j int) bool { return ring[i].ID() < ring[j].ID() })
	m := &ReplicaMap{
		factor:   factor,
		ring:     ring,
		pos:      make(map[string]int, len(ring)),
		replicas: make(map[string][]Node, len(ring)),
	}
	for i, w := range ring {
		m.pos[w.ID()] = i
	}
	per := factor - 1
	if per > len(ring)-1 {
		per = len(ring) - 1
	}
	for i, w := range ring {
		if per <= 0 {
			m.replicas[w.ID()] = nil
			continue
		}
		reps := make([]Node, 0, per)
		for j := 1; j <= per; j++ {
			reps = append(reps, ring[(i+j)%len(ring)])
		}
		m.replicas[w.ID()] = reps
	}
	return m
}

// Factor returns the replication factor; a nil map reports 1 (no replicas).
func (m *ReplicaMap) Factor() int {
	if m == nil {
		return 1
	}
	return m.factor
}

// Replicas returns the replica peers of the given primary in failover order
// (ring successors first). Nil for a nil map or an unknown primary.
func (m *ReplicaMap) Replicas(primaryID string) []Node {
	if m == nil {
		return nil
	}
	return m.replicas[primaryID]
}

// ReplicaSet returns every peer holding a replica of some zone intersecting
// the region — the set of peers that can serve any part of the region should
// its primaries die. The result is deduplicated and in canonical ring order.
func (m *ReplicaMap) ReplicaSet(region Region) []Node {
	if m == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []Node
	for _, w := range m.ring { // ring order makes the output canonical
		if !w.Zone().Intersect(region).IsEmpty() {
			for _, rep := range m.replicas[w.ID()] {
				if !seen[rep.ID()] {
					seen[rep.ID()] = true
					out = append(out, rep)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return m.pos[out[i].ID()] < m.pos[out[j].ID()] })
	return out
}

// ActingNode is a replica peer executing a query step on behalf of a dead
// primary. Identity, zone, links and tuples all delegate to the primary — the
// engine, answer dedup and trace spans behave exactly as if the primary had
// processed the call — while Via records the physical peer doing the work
// (the fault injector keys on the physical sender; see PhysicalID).
type ActingNode struct {
	Primary Node // the dead peer whose zone this step serves
	Via     Node // the live replica actually executing
}

// ID returns the primary's ID: the acting step is the primary's step.
func (a ActingNode) ID() string { return a.Primary.ID() }

// Zone returns the primary's zone.
func (a ActingNode) Zone() Region { return a.Primary.Zone() }

// Links returns the primary's links, so the recovered subtree delegates the
// same restriction partition the primary would have.
func (a ActingNode) Links() []Link { return a.Primary.Links() }

// Tuples returns the primary's tuples (the replica mirrors them).
func (a ActingNode) Tuples() []dataset.Tuple { return a.Primary.Tuples() }

// Store returns the storage engine serving the primary's zone, so a recovery
// step processes against the mirrored share with the same engine (and the
// same pruning) the primary would have used.
func (a ActingNode) Store() storage.Store { return storage.Of(a.Primary) }

// PhysicalID returns the ID of the peer physically executing w: the replica
// for an acting step, w itself otherwise. Fault decisions key on physical
// endpoints, matching a real deployment where the replica's network identity
// — not the dead primary's — is what the next link failure happens to.
func PhysicalID(w Node) string {
	if a, ok := w.(ActingNode); ok {
		return a.Via.ID()
	}
	return w.ID()
}

// CanonicalRegions deduplicates and canonically sorts a failed-region set, so
// results are comparable across runtimes and runs regardless of the order in
// which losses were recorded (concurrent runtimes record them in scheduling
// order). Sorting is by the region's rendered form — a pure function of its
// boxes — and exact duplicates (same rendering) collapse to one entry.
func CanonicalRegions(rs []Region) []Region {
	if len(rs) == 0 {
		return rs
	}
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = r.String()
	}
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]Region, 0, len(rs))
	last := ""
	for n, i := range idx {
		if n > 0 && keys[i] == last {
			continue
		}
		last = keys[i]
		out = append(out, rs[i])
	}
	return out
}
