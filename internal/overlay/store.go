package overlay

import (
	"ripple/internal/dataset"
	"ripple/internal/storage"
)

// StoreOf returns the storage engine serving w's tuples: the node's own store
// when it has one, a flat scan view otherwise. Processors go through this (or
// storage.Of directly) so a node type opts into indexed local processing just
// by implementing storage.Provider.
func StoreOf(w Node) storage.Store { return storage.Of(w) }

// ScanOnly wraps a node so that local processing sees only the flat-slice
// baseline: the wrapper hides the node's storage.Provider implementation
// while delegating the Node interface itself. The engine uses it when
// core.Options.Storage selects the scan reference engine, giving every
// indexed result a same-process baseline to compare against.
//
// Only processor-facing call sites may wrap: routing, fault injection and
// trace identity key on the original node (PhysicalID type-switches on
// ActingNode, which the wrapper deliberately does not forward).
func ScanOnly(w Node) Node {
	if _, ok := w.(scanOnlyNode); ok {
		return w
	}
	return scanOnlyNode{w}
}

type scanOnlyNode struct{ inner Node }

func (s scanOnlyNode) ID() string              { return s.inner.ID() }
func (s scanOnlyNode) Zone() Region            { return s.inner.Zone() }
func (s scanOnlyNode) Links() []Link           { return s.inner.Links() }
func (s scanOnlyNode) Tuples() []dataset.Tuple { return s.inner.Tuples() }
