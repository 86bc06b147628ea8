// Package delaunay implements an incremental Bowyer-Watson Delaunay
// triangulation on the region plane. It is the interpolation substrate
// DT(x, y) that both the FRA placement algorithm and the δ quality metric
// are defined against (paper Section 3.1: "we also adopt Delaunay
// triangulation z* = DT(x, y) to reconstruct an approximating surface").
//
// The triangulation works over a fixed bounding rectangle supplied at
// construction: three synthetic "super-triangle" vertices far outside the
// rectangle bootstrap the structure and are hidden from all public
// accessors. Point location uses the remembering stochastic walk, giving
// near-O(1) queries for the spatially coherent access patterns of grid
// scans.
package delaunay

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ErrOutOfBounds is returned when a point outside the construction
// rectangle is inserted.
var ErrOutOfBounds = errors.New("delaunay: point outside triangulation bounds")

// ErrDuplicate is returned when an inserted point coincides with an
// existing vertex; the existing vertex ID accompanies it via
// DuplicateError.
var ErrDuplicate = errors.New("delaunay: duplicate point")

// DuplicateError wraps ErrDuplicate and carries the ID of the vertex the
// new point collided with.
type DuplicateError struct {
	// ID is the existing vertex the insertion collided with.
	ID int
}

// Error implements the error interface.
func (e *DuplicateError) Error() string {
	return fmt.Sprintf("delaunay: duplicate of vertex %d", e.ID)
}

// Is reports whether target is ErrDuplicate.
func (e *DuplicateError) Is(target error) bool { return target == ErrDuplicate }

// duplicateEps is the squared distance under which two inserted points are
// considered the same vertex.
const duplicateEps2 = 1e-18

const nSuper = 3 // synthetic bootstrap vertices occupy IDs 0..2

// tri is one triangle: vertex IDs in counter-clockwise order plus the
// adjacent triangle index across the edge opposite each vertex (-1 = hull).
type tri struct {
	v     [3]int
	adj   [3]int
	alive bool
}

// Triangulation is an incremental Delaunay triangulation. The zero value
// is not usable; construct with New.
type Triangulation struct {
	bounds geom.Rect
	pts    []geom.Vec2 // all vertices, including the 3 super vertices
	tris   []tri
	free   []int // indices of dead triangles available for reuse
	// last is the triangle the latest insertion located or created, where
	// the next insertion's walk starts.
	last int
	// vtri[id] is an alive triangle incident to vertex id, where a query's
	// walk may start (see start). Only InsertDirty writes last and vtri, so
	// a query's answer depends on the triangulation alone, and read-only
	// queries (Find, NearestVertex, interpolation) are safe from multiple
	// goroutines; InsertDirty requires exclusive access.
	vtri []int

	// Insertion scratch, reused so that a steady-state insertion allocates
	// only when the triangulation itself grows.
	cavity      []int
	inCavity    map[int]bool
	rim         []boundaryEdge
	created     []int
	newByFirst  map[int]int
	newBySecond map[int]int
	newReal     []Triangle // InsertDirty's result buffer
}

// New returns an empty triangulation able to accept any point inside
// bounds.
func New(bounds geom.Rect) *Triangulation {
	// The super triangle must comfortably contain the bounds; a margin of
	// several diagonals keeps its circumcircles from interfering with
	// in-region geometry in practice.
	c := bounds.Center()
	d := bounds.Diagonal()
	if d == 0 {
		d = 1
	}
	m := 64 * d
	t := &Triangulation{
		bounds:      bounds,
		inCavity:    map[int]bool{},
		newByFirst:  map[int]int{},
		newBySecond: map[int]int{},
		pts: []geom.Vec2{
			{X: c.X - 2*m, Y: c.Y - m},
			{X: c.X + 2*m, Y: c.Y - m},
			{X: c.X, Y: c.Y + 2*m},
		},
	}
	t.tris = []tri{{v: [3]int{0, 1, 2}, adj: [3]int{-1, -1, -1}, alive: true}}
	t.vtri = []int{0, 0, 0}
	return t
}

// NumVertices returns the number of real (caller-inserted) vertices.
func (t *Triangulation) NumVertices() int { return len(t.pts) - nSuper }

// Point returns the coordinates of vertex id (as returned by InsertDirty).
func (t *Triangulation) Point(id int) geom.Vec2 { return t.pts[id] }

// Bounds returns the construction rectangle.
func (t *Triangulation) Bounds() geom.Rect { return t.bounds }

// InsertDirty adds p and returns its vertex ID together with the
// triangles of real vertices the insertion created, each in stored
// (counter-clockwise) vertex order. Inside the convex hull of the real
// vertices, every point whose covering triangle changed lies in one of
// them, so derived state (FRA's local-error lattice) can be refreshed by
// visiting only those triangles instead of the whole domain. The slice is
// a buffer the Triangulation reuses: it is valid until the next insertion.
// Re-inserting an existing point returns a *DuplicateError
// (errors.Is(err, ErrDuplicate)) carrying the prior ID. A failed or
// duplicate insertion returns no triangles: nothing changed.
func (t *Triangulation) InsertDirty(p geom.Vec2) (int, []Triangle, error) {
	if !p.IsFinite() || !t.bounds.Contains(p) {
		return -1, nil, fmt.Errorf("%w: %v not in %v", ErrOutOfBounds, p, t.bounds)
	}
	start, err := t.walkFrom(t.last, p)
	if err != nil {
		return -1, nil, err
	}
	t.last = start
	// Duplicate check against the vertices of the containing triangle and
	// its cavity is insufficient for near-coincident points that fall in a
	// neighboring triangle, so check the containing triangle's vertices
	// and, below, every cavity vertex.
	for _, v := range t.tris[start].v {
		if v >= nSuper && t.pts[v].Dist2(p) < duplicateEps2 {
			return v, nil, &DuplicateError{ID: v}
		}
	}

	cavity := t.findCavity(p, start)
	for _, ti := range cavity {
		for _, v := range t.tris[ti].v {
			if v >= nSuper && t.pts[v].Dist2(p) < duplicateEps2 {
				return v, nil, &DuplicateError{ID: v}
			}
		}
	}

	id := len(t.pts)
	t.pts = append(t.pts, p)
	t.vtri = append(t.vtri, 0)
	t.retriangulate(id, cavity)
	return id, t.newReal, nil
}

// findCavity returns the indices of all alive triangles whose circumcircle
// contains p, found by flood fill from the containing triangle.
// The slice and the membership set are scratch reused across insertions.
func (t *Triangulation) findCavity(p geom.Vec2, start int) []int {
	inCavity := t.inCavity
	clear(inCavity)
	inCavity[start] = true
	cavity := append(t.cavity[:0], start)
	for head := 0; head < len(cavity); head++ {
		ti := cavity[head]
		for _, nb := range t.tris[ti].adj {
			if nb < 0 || inCavity[nb] {
				continue
			}
			if t.circumContains(nb, p) {
				inCavity[nb] = true
				cavity = append(cavity, nb)
			}
		}
	}
	t.cavity = cavity
	return cavity
}

// circumContains reports whether p lies inside the circumcircle of alive
// triangle ti, treating super vertices symbolically as points at infinity.
// A triangle with one infinite vertex has, as its "circumcircle", the open
// half-plane on the infinite vertex's side of its finite edge — the
// standard ghost-triangle semantics. Without this, hull slivers whose true
// circumcircles exceed the (finite) super-triangle distance get glued to
// super vertices and the visible triangulation develops holes near the
// hull.
func (t *Triangulation) circumContains(ti int, p geom.Vec2) bool {
	tr := &t.tris[ti]
	superIdx := -1
	superCount := 0
	for k, v := range tr.v {
		if v < nSuper {
			superIdx = k
			superCount++
		}
	}
	if superCount == 1 {
		a := t.pts[tr.v[(superIdx+1)%3]]
		b := t.pts[tr.v[(superIdx+2)%3]]
		switch geom.Orient2D(a, b, p) {
		case geom.CounterClockwise:
			// Strictly on the infinite side of the finite (hull) edge.
			return true
		case geom.Collinear:
			// Exactly on the hull edge: include the ghost so the edge is
			// split rather than leaving a degenerate inner triangle.
			return p.X >= math.Min(a.X, b.X)-1e-12 && p.X <= math.Max(a.X, b.X)+1e-12 &&
				p.Y >= math.Min(a.Y, b.Y)-1e-12 && p.Y <= math.Max(a.Y, b.Y)+1e-12
		default:
			return false
		}
	}
	return geom.InCircle(t.pts[tr.v[0]], t.pts[tr.v[1]], t.pts[tr.v[2]], p)
}

// boundaryEdge is one directed edge on the rim of the cavity, with the
// surviving triangle on its far side.
type boundaryEdge struct {
	a, b  int // vertex IDs, oriented counter-clockwise around the cavity
	outer int // adjacent triangle outside the cavity, or -1 at the hull
}

// retriangulate removes the cavity found by findCavity (whose membership
// set t.inCavity still holds) and fans new triangles from id to each
// boundary edge, fixing all adjacency links. The new triangles of real
// vertices are left in t.newReal.
func (t *Triangulation) retriangulate(id int, cavity []int) {
	rim := t.rim[:0]
	for _, ti := range cavity {
		tr := &t.tris[ti]
		for i := 0; i < 3; i++ {
			nb := tr.adj[i]
			if nb >= 0 && t.inCavity[nb] {
				continue
			}
			// Edge opposite vertex i runs v[i+1] -> v[i+2] (CCW).
			rim = append(rim, boundaryEdge{
				a:     tr.v[(i+1)%3],
				b:     tr.v[(i+2)%3],
				outer: nb,
			})
		}
	}
	t.rim = rim
	for _, ti := range cavity {
		t.tris[ti].alive = false
		t.free = append(t.free, ti)
	}
	// One new triangle per rim edge: (a, b, id). Adjacency across (a, b)
	// is the old outer triangle; across the two spoke edges it is the new
	// triangle sharing that spoke, found via the vertex at the far end.
	newByFirst := t.newByFirst // rim edge start vertex -> new triangle
	clear(newByFirst)
	created := t.created[:0]
	for _, e := range rim {
		nt := t.alloc()
		t.tris[nt] = tri{v: [3]int{e.a, e.b, id}, adj: [3]int{-1, -1, -1}, alive: true}
		// adj[2] is opposite vertex id, i.e. across edge (a, b).
		t.tris[nt].adj[2] = e.outer
		if e.outer >= 0 {
			t.setAdjAcross(e.outer, e.b, e.a, nt)
		}
		newByFirst[e.a] = nt
		t.vtri[e.a] = nt // every cavity vertex starts one rim edge
		created = append(created, nt)
	}
	t.created = created
	newBySecond := t.newBySecond // rim edge end vertex -> new triangle
	clear(newBySecond)
	for _, nt := range created {
		newBySecond[t.tris[nt].v[1]] = nt
	}
	newReal := t.newReal[:0]
	for _, nt := range created {
		a, b := t.tris[nt].v[0], t.tris[nt].v[1]
		// Across edge (b, id) — opposite vertex a — lies the new triangle
		// whose rim edge starts at b.
		if other, ok := newByFirst[b]; ok {
			t.tris[nt].adj[0] = other
		}
		// Across edge (id, a) — opposite vertex b — lies the new triangle
		// whose rim edge ends at a.
		if other, ok := newBySecond[a]; ok {
			t.tris[nt].adj[1] = other
		}
		if a >= nSuper && b >= nSuper {
			newReal = append(newReal, Triangle{V: t.tris[nt].v})
		}
	}
	t.newReal = newReal
	if len(created) > 0 {
		t.last = created[0]
		t.vtri[id] = created[0]
	}
}

// setAdjAcross points triangle ti's adjacency across edge (a, b) at value.
func (t *Triangulation) setAdjAcross(ti, a, b, value int) {
	tr := &t.tris[ti]
	for i := 0; i < 3; i++ {
		va, vb := tr.v[(i+1)%3], tr.v[(i+2)%3]
		if (va == a && vb == b) || (va == b && vb == a) {
			tr.adj[i] = value
			return
		}
	}
	panic(fmt.Sprintf("delaunay: triangle %d has no edge (%d,%d)", ti, a, b))
}

// alloc returns a reusable triangle slot.
func (t *Triangulation) alloc() int {
	if n := len(t.free); n > 0 {
		ti := t.free[n-1]
		t.free = t.free[:n-1]
		return ti
	}
	t.tris = append(t.tris, tri{})
	return len(t.tris) - 1
}

// walkFrom returns the index of an alive triangle containing p, by a
// neighbor walk from triangle cur (from the first alive triangle when cur
// is not an alive one) with a linear-scan fallback for robustness. It
// reads but never writes the triangulation.
func (t *Triangulation) walkFrom(cur int, p geom.Vec2) (int, error) {
	if cur < 0 || cur >= len(t.tris) || !t.tris[cur].alive {
		cur = t.anyAlive()
	}
	maxSteps := 4 * (len(t.tris) + 8)
	for step := 0; step < maxSteps; step++ {
		tr := &t.tris[cur]
		next := -1
		for i := 0; i < 3; i++ {
			a, b := t.pts[tr.v[(i+1)%3]], t.pts[tr.v[(i+2)%3]]
			if geom.Orient2D(a, b, p) == geom.Clockwise {
				next = tr.adj[i]
				break
			}
		}
		if next == -1 {
			// No separating edge: p is inside (or on the border of) cur.
			return cur, nil
		}
		if next < 0 {
			break // walked off the hull; fall through to scan
		}
		cur = next
	}
	// Robust fallback, O(n).
	for i := range t.tris {
		tr := &t.tris[i]
		if !tr.alive {
			continue
		}
		if geom.InTriangle(t.pts[tr.v[0]], t.pts[tr.v[1]], t.pts[tr.v[2]], p) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: locate failed for %v", ErrOutOfBounds, p)
}

func (t *Triangulation) anyAlive() int {
	for i := range t.tris {
		if t.tris[i].alive {
			return i
		}
	}
	panic("delaunay: no alive triangles")
}

// Triangle is a triangle of real vertices, reported by Triangles and
// InsertDirty.
type Triangle struct {
	// V holds the three vertex IDs in counter-clockwise order.
	V [3]int
}

// Triangles returns all alive triangles none of whose vertices is a super
// vertex, i.e. the visible triangulation of the inserted point set.
func (t *Triangulation) Triangles() []Triangle {
	var out []Triangle
	t.EachTriangle(func(tr Triangle) { out = append(out, tr) })
	return out
}

// EachTriangle calls fn with each triangle Triangles returns, in order,
// without allocating. Like Find, it may run concurrently with itself.
func (t *Triangulation) EachTriangle(fn func(Triangle)) {
	for i := range t.tris {
		tr := &t.tris[i]
		if tr.alive && tr.v[0] >= nSuper && tr.v[1] >= nSuper && tr.v[2] >= nSuper {
			fn(Triangle{V: tr.v})
		}
	}
}

// Find returns the vertex IDs of the triangle of real vertices containing
// p. ok is false when p is outside the convex hull of the inserted points
// (the containing triangle touches a super vertex) or location fails.
func (t *Triangulation) Find(p geom.Vec2) (v [3]int, ok bool) {
	ti, err := t.walkFrom(t.start(p), p)
	if err != nil {
		return v, false
	}
	return t.realTriangleAt(ti, p)
}

// start returns where a query's walk to p begins: a triangle incident to
// the nearest of about √n real vertices taken at a fixed stride (jump and
// walk), which keeps the walk short without remembering earlier queries.
func (t *Triangulation) start(p geom.Vec2) int {
	stride := max(1, int(math.Sqrt(float64(t.NumVertices()))))
	best, bestD := 0, math.Inf(1) // a super vertex until a real one is nearer
	for id := nSuper; id < len(t.pts); id += stride {
		if d := t.pts[id].Dist2(p); d < bestD {
			best, bestD = id, d
		}
	}
	return t.vtri[best]
}

// realTriangleAt resolves the walk's final triangle ti into a triangle of
// real vertices containing p. A point exactly on a hull edge is contained
// in both the real triangle and the ghost across the edge, and the walk
// may stop at either depending on its path; snapping to the real neighbor
// makes the answer deterministic and keeps hull-edge queries interpolated
// instead of falling back to the nearest sample.
func (t *Triangulation) realTriangleAt(ti int, p geom.Vec2) (v [3]int, ok bool) {
	tr := &t.tris[ti]
	superIdx, superCount := -1, 0
	for k, vv := range tr.v {
		if vv < nSuper {
			superIdx = k
			superCount++
		}
	}
	if superCount == 0 {
		return tr.v, true
	}
	if superCount == 1 {
		a := t.pts[tr.v[(superIdx+1)%3]]
		b := t.pts[tr.v[(superIdx+2)%3]]
		if geom.Orient2D(a, b, p) == geom.Collinear {
			if nb := tr.adj[superIdx]; nb >= 0 {
				nbt := &t.tris[nb]
				if nbt.alive && nbt.v[0] >= nSuper && nbt.v[1] >= nSuper && nbt.v[2] >= nSuper {
					return nbt.v, true
				}
			}
		}
	}
	return v, false
}

// NearestVertex returns the ID of the real vertex nearest to p, or -1 when
// the triangulation is empty. It is the interpolation fallback outside the
// convex hull.
func (t *Triangulation) NearestVertex(p geom.Vec2) int {
	best, bestD := -1, 0.0
	for id := nSuper; id < len(t.pts); id++ {
		d := t.pts[id].Dist2(p)
		if best == -1 || d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// VertexIDs returns the IDs of all real vertices in insertion order.
func (t *Triangulation) VertexIDs() []int {
	out := make([]int, 0, t.NumVertices())
	for id := nSuper; id < len(t.pts); id++ {
		out = append(out, id)
	}
	return out
}
