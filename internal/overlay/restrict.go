package overlay

import (
	"sync"

	"ripple/internal/dataset"
)

// Restricted wraps a node so that local processing sees only the tuples
// inside scope: the processor-facing lens behind scoped ("hot region")
// queries. Like ScanOnly it delegates the Node interface but hides the
// storage.Provider implementation, so storage.Of falls
// back to a flat scan over the filtered share — every runtime computes a
// scoped local answer from exactly the same tuple set regardless of the
// peer's storage engine. An empty scope returns w unchanged, keeping the
// unscoped path byte-for-byte identical to before.
//
// Only processor-facing call sites may wrap (the same rule as ScanOnly):
// routing, fault injection and trace identity key on the original node.
func Restricted(w Node, scope Region) Node {
	if scope.IsEmpty() {
		return w
	}
	return &restrictedNode{inner: w, scope: scope}
}

type restrictedNode struct {
	inner Node
	scope Region

	once   sync.Once
	inside []dataset.Tuple
}

func (n *restrictedNode) ID() string    { return n.inner.ID() }
func (n *restrictedNode) Zone() Region  { return n.inner.Zone() }
func (n *restrictedNode) Links() []Link { return n.inner.Links() }

func (n *restrictedNode) Tuples() []dataset.Tuple {
	n.once.Do(func() {
		all := n.inner.Tuples()
		for _, t := range all {
			if n.scope.Contains(t.Vec) {
				n.inside = append(n.inside, t)
			}
		}
	})
	return n.inside
}
