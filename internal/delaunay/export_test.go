package delaunay

import (
	"fmt"

	"repro/internal/geom"
)

// AliveTriangleCount reports the number of alive triangles, including those
// touching super vertices. Test-only.
func (t *Triangulation) AliveTriangleCount() int {
	n := 0
	for i := range t.tris {
		if t.tris[i].alive {
			n++
		}
	}
	return n
}

// Insert is InsertDirty without the created triangles.
func (t *Triangulation) Insert(p geom.Vec2) (int, error) {
	id, _, err := t.InsertDirty(p)
	return id, err
}

// CheckInvariants validates structural invariants (adjacency symmetry,
// counter-clockwise orientation, the empty-circumcircle property and each
// vertex's recorded incident triangle) and returns the first violation
// found.
func (t *Triangulation) CheckInvariants() error {
	for id, ti := range t.vtri {
		tr := &t.tris[ti]
		if !tr.alive || (tr.v[0] != id && tr.v[1] != id && tr.v[2] != id) {
			return fmt.Errorf("vertex %d records triangle %d, which is dead or not incident", id, ti)
		}
	}
	for i := range t.tris {
		tr := &t.tris[i]
		if !tr.alive {
			continue
		}
		a, b, c := t.pts[tr.v[0]], t.pts[tr.v[1]], t.pts[tr.v[2]]
		if geom.Orient2D(a, b, c) != geom.CounterClockwise {
			return fmt.Errorf("triangle %d not CCW", i)
		}
		for e := 0; e < 3; e++ {
			nb := tr.adj[e]
			if nb < 0 {
				continue
			}
			if !t.tris[nb].alive {
				return fmt.Errorf("triangle %d adjacent to dead %d", i, nb)
			}
			if !t.mutualAdjacent(i, nb) {
				return fmt.Errorf("adjacency %d->%d not mutual", i, nb)
			}
		}
		// Empty circumcircle against every real vertex (O(n²) — tests
		// only), under the same symbolic semantics as the construction.
		for id := nSuper; id < len(t.pts); id++ {
			if id == tr.v[0] || id == tr.v[1] || id == tr.v[2] {
				continue
			}
			if t.circumContains(i, t.pts[id]) {
				return fmt.Errorf("vertex %d violates empty circumcircle of triangle %d", id, i)
			}
		}
	}
	return nil
}

func (t *Triangulation) mutualAdjacent(i, j int) bool {
	for _, a := range t.tris[j].adj {
		if a == i {
			return true
		}
	}
	return false
}
