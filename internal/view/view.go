// Package view defines the unified alive-view of a node swarm: the one
// value that every layer of the simulation — the staged engine, the
// communication graph, the collection tree, the LCM resolver and the
// evaluation harness — consumes when it needs to know where the nodes are
// and which of them are up.
//
// Before this abstraction existed, every layer carried a masked twin of
// its fault-free entry point (ResolveLCM/resolveLCMMasked,
// Components/ComponentsMask, BuildTree/BuildTreeMasked), each with its own
// mask polarity. An Alive value replaces all of those pairs: the fault-free
// variant is simply the view whose Mask is nil, meaning every node is
// alive, so one implementation serves both worlds and the zero-fault path
// stays bit-identical by construction.
package view

import "repro/internal/geom"

// Alive is a snapshot of the swarm: node positions and an aliveness mask.
// The zero value is an empty, all-alive view.
//
// A view is a read-only borrow: holders must not mutate Pos or Mask, and
// producers may reuse the backing arrays once the swarm moves on.
type Alive struct {
	// Pos are the node positions on the region plane.
	Pos []geom.Vec2
	// Mask reports per-node aliveness; nil means every node is alive.
	// When non-nil it must have len(Pos) entries.
	Mask []bool
}

// FromDown converts a legacy down-mask (true = failed) over pos into a
// view. A nil down mask yields the all-alive view.
func FromDown(pos []geom.Vec2, down []bool) Alive {
	if down == nil {
		return Alive{Pos: pos}
	}
	mask := make([]bool, len(down))
	for i, d := range down {
		mask[i] = !d
	}
	return Alive{Pos: pos, Mask: mask}
}

// N returns the number of nodes in the view.
func (v Alive) N() int { return len(v.Pos) }

// Up reports whether node i is alive.
func (v Alive) Up(i int) bool { return v.Mask == nil || v.Mask[i] }

// AllUp reports whether the view cannot contain dead nodes (nil mask).
func (v Alive) AllUp() bool { return v.Mask == nil }

// Count returns the number of alive nodes.
func (v Alive) Count() int {
	if v.Mask == nil {
		return len(v.Pos)
	}
	c := 0
	for _, up := range v.Mask {
		if up {
			c++
		}
	}
	return c
}
