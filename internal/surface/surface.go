// Package surface ties environment values to a Delaunay triangulation,
// producing the rebuilt virtual surface z* = DT(x, y) of the paper, and
// implements the quality metric δ — the volume difference between the real
// and the rebuilt surface (paper Theorem 3.1):
//
//	δ(V(z), V(z*)) = ∫∫_A |f(x, y) − DT(x, y)| dx dy
//
// evaluated numerically on the region lattice.
package surface

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bands"
	"repro/internal/delaunay"
	"repro/internal/field"
	"repro/internal/geom"
)

// ErrNoData is returned when a surface has no samples at all.
var ErrNoData = errors.New("surface: no samples")

// TIN is a triangulated irregular network: a Delaunay triangulation of
// sample positions with the sampled z value attached to each vertex. It
// implements field.Field via piecewise-linear (barycentric) interpolation
// over the triangles, falling back to the nearest sample outside the
// convex hull.
type TIN struct {
	tri *delaunay.Triangulation
	z   []float64 // vertex ID -> sampled value (dense; super slots unused)
	// corners is a bitmask of the region corners present among the
	// samples. With all four corners anchored the convex hull equals the
	// region rectangle, so every in-bounds query resolves by triangle
	// interpolation — the precondition for trusting incremental updates.
	corners int
	// flat records that an insertion created a triangle whose vertices
	// Orient2D calls collinear. At small region scales the absolute
	// predicate tolerances leave such zero-area triangles when a point
	// lands on an edge; a query on their edges resolves differently
	// depending on the triangle the walk stops in, so no incremental
	// refresh can reproduce a full one.
	flat bool
}

// NewTIN returns an empty TIN over the given region.
func NewTIN(region geom.Rect) *TIN {
	return &TIN{tri: delaunay.New(region)}
}

// FromSamples builds a TIN from a sample set. Duplicate positions keep the
// first value. It returns ErrNoData for an empty input.
func FromSamples(region geom.Rect, samples []field.Sample) (*TIN, error) {
	if len(samples) == 0 {
		return nil, ErrNoData
	}
	t := NewTIN(region)
	for _, s := range samples {
		if err := t.Add(s); err != nil && !errors.Is(err, delaunay.ErrDuplicate) {
			return nil, fmt.Errorf("surface: add sample at %v: %w", s.Pos, err)
		}
	}
	return t, nil
}

// Add inserts one sample. Duplicates return delaunay.ErrDuplicate and keep
// the existing value.
func (t *TIN) Add(s field.Sample) error {
	_, _, err := t.AddDirty(s)
	return err
}

// AddDirty inserts one sample and reports the triangles the insertion
// created (delaunay.Triangulation.InsertDirty; the slice is reused by the
// next insertion). When exact is true, every point whose Eval result
// changed lies in one of those triangles, so derived state such as FRA's
// local-error lattice can be refreshed incrementally with
// LocalErrorGrid.UpdateTriangles. exact requires all four region corners
// to have been present *before* this insertion: without them, some
// in-bounds queries resolve by the nearest-sample fallback, whose answer
// can change anywhere when a sample is added. It also requires that no
// insertion so far, this one included, created a zero-area triangle.
// Duplicates return delaunay.ErrDuplicate and no triangles.
func (t *TIN) AddDirty(s field.Sample) (created []delaunay.Triangle, exact bool, err error) {
	covered := t.corners == 0b1111
	id, created, err := t.tri.InsertDirty(s.Pos)
	if err != nil {
		return nil, false, err
	}
	for len(t.z) <= id {
		t.z = append(t.z, 0)
	}
	t.z[id] = s.Z
	for ci, c := range t.tri.Bounds().Corners() {
		if s.Pos == c {
			t.corners |= 1 << ci
		}
	}
	for _, tr := range created {
		a, b, c := t.tri.Point(tr.V[0]), t.tri.Point(tr.V[1]), t.tri.Point(tr.V[2])
		t.flat = t.flat || geom.Orient2D(a, b, c) != geom.CounterClockwise
	}
	return created, covered && !t.flat, nil
}

// Bounds implements field.Field.
func (t *TIN) Bounds() geom.Rect { return t.tri.Bounds() }

// Eval implements field.Field: DT(x, y), the piecewise-linear Delaunay
// interpolation of the samples. Queries outside the convex hull (or on an
// empty TIN) fall back to the nearest sample value; a fully empty TIN
// returns 0.
func (t *TIN) Eval(p geom.Vec2) float64 {
	if v, ok := t.tri.Find(p); ok {
		if z, ok := t.interpTriangle(v, p); ok {
			return z
		}
	}
	return t.nearest(p)
}

// nearest is Eval's fallback outside the convex hull: the value of the
// nearest sample, or 0 on an empty TIN.
func (t *TIN) nearest(p geom.Vec2) float64 {
	if id := t.tri.NearestVertex(p); id >= 0 {
		return t.z[id]
	}
	return 0
}

// interpTriangle interpolates p over the triangle with vertex IDs v. A
// query exactly on a vertex or an edge is contained in more than one
// triangle and point location may legitimately return any of them, so
// those cases are resolved in a way that depends only on the shared
// feature — the vertex's sample value, or 1-D interpolation along the
// edge with endpoints taken in vertex-ID order — making evaluation
// bit-identical regardless of the walk path that found the triangle.
// That determinism is what lets parallel and incremental re-evaluation
// reproduce the serial full-scan results exactly.
func (t *TIN) interpTriangle(v [3]int, p geom.Vec2) (float64, bool) {
	a, b, c := t.tri.Point(v[0]), t.tri.Point(v[1]), t.tri.Point(v[2])
	if p == a {
		return t.z[v[0]], true
	}
	if p == b {
		return t.z[v[1]], true
	}
	if p == c {
		return t.z[v[2]], true
	}
	for _, e := range [3][2]int{{0, 1}, {1, 2}, {2, 0}} {
		i, j := v[e[0]], v[e[1]]
		pi, pj := t.tri.Point(i), t.tri.Point(j)
		if geom.Orient2D(pi, pj, p) != geom.Collinear {
			continue
		}
		if j < i {
			i, j = j, i
			pi, pj = pj, pi
		}
		d2 := pi.Dist2(pj)
		if d2 == 0 {
			break
		}
		s := p.Sub(pi).Dot(pj.Sub(pi)) / d2
		return t.z[i] + s*(t.z[j]-t.z[i]), true
	}
	return t.barycentric(v, a, b, c, p)
}

// barycentric interpolates p over the triangle with vertex IDs v and
// positions a, b, c, weighting the vertex values in stored vertex order.
func (t *TIN) barycentric(v [3]int, a, b, c, p geom.Vec2) (float64, bool) {
	wa, wb, wc, ok := geom.Barycentric(a, b, c, p)
	if !ok {
		return 0, false
	}
	return wa*t.z[v[0]] + wb*t.z[v[1]] + wc*t.z[v[2]], true
}

// Samples returns the TIN's samples in insertion order.
func (t *TIN) Samples() []field.Sample {
	ids := t.tri.VertexIDs()
	out := make([]field.Sample, 0, len(ids))
	for _, id := range ids {
		out = append(out, field.Sample{Pos: t.tri.Point(id), Z: t.z[id]})
	}
	return out
}

// Positions returns the sample positions in insertion order.
func (t *TIN) Positions() []geom.Vec2 {
	ids := t.tri.VertexIDs()
	out := make([]geom.Vec2, 0, len(ids))
	for _, id := range ids {
		out = append(out, t.tri.Point(id))
	}
	return out
}

// Triangles returns the triangle vertex positions of the current
// triangulation (real vertices only).
func (t *TIN) Triangles() [][3]geom.Vec2 {
	tris := t.tri.Triangles()
	out := make([][3]geom.Vec2, 0, len(tris))
	for _, tr := range tris {
		out = append(out, [3]geom.Vec2{
			t.tri.Point(tr.V[0]), t.tri.Point(tr.V[1]), t.tri.Point(tr.V[2]),
		})
	}
	return out
}

// bandRows is the number of lattice rows per work band. Bands are a fixed
// function of the row count — never of the worker count — so every
// computed bit is identical at GOMAXPROCS=1 and GOMAXPROCS=N.
const bandRows = 8

// latticeScan fills a field's values f(xs[i], ys[j]) on a lattice, a band
// of rows at a time. A TIN's triangles are scan-converted over the band
// (scanTriangle), and a node none covers, outside the hull, takes Eval's
// fallback: TIN.Eval's bits without a walk per node. Any other field is
// evaluated per node, and so is a flat TIN (see TIN.flat), whose
// scan-converted triangles could disagree with Eval on their edges.
type latticeScan struct {
	f      field.Field
	t      *TIN      // f as a TIN, or nil
	xs, ys []float64 // increasing node coordinates
	// Per worker: the nodes of the current band some triangle covered,
	// and the band buffer of band.
	covered [][]bool
	vals    [][]float64
}

func newLatticeScan(f field.Field, xs, ys []float64) *latticeScan {
	t, _ := f.(*TIN)
	w := bands.Workers(len(xs), bandRows)
	return &latticeScan{f: f, t: t, xs: xs, ys: ys, covered: make([][]bool, w), vals: make([][]float64, w)}
}

// rows writes the values of rows [lo, hi) to dst, row-major with stride
// len(ys), as worker w.
func (s *latticeScan) rows(w, lo, hi int, dst []float64) {
	t, m := s.t, len(s.ys)
	dst = dst[:(hi-lo)*m]
	if t == nil || t.flat {
		for k := range dst {
			dst[k] = s.f.Eval(geom.V2(s.xs[lo+k/m], s.ys[k%m]))
		}
		return
	}
	if len(s.covered[w]) < len(dst) {
		s.covered[w] = make([]bool, len(dst))
	}
	covered := s.covered[w][:len(dst)]
	clear(covered)
	t.tri.EachTriangle(func(tr delaunay.Triangle) {
		t.scanTriangle(tr.V, s.xs, s.ys, lo, hi, func(i, j int, z float64) {
			k := (i-lo)*m + j
			dst[k], covered[k] = z, true
		})
	})
	for k, c := range covered {
		if !c {
			dst[k] = t.nearest(geom.V2(s.xs[lo+k/m], s.ys[k%m]))
		}
	}
}

// band is rows into worker w's own buffer, valid until its next band.
func (s *latticeScan) band(w, lo, hi int) []float64 {
	if len(s.vals[w]) < (hi-lo)*len(s.ys) {
		s.vals[w] = make([]float64, (hi-lo)*len(s.ys))
	}
	s.rows(w, lo, hi, s.vals[w])
	return s.vals[w]
}

// scanTriangle calls set(i, j, DT(xs[i], ys[j])) for each node of rows
// [lo, hi) that the triangle with vertex IDs v covers, and returns the
// range of rows it visited (empty when it misses them). Per row it visits
// the triangle's span widened by one node at each end, and classifies
// each node by the walk's three orientation tests: right of an edge, it
// lies in another triangle; strictly inside, it is interpolated
// barycentrically in stored vertex order, as interpTriangle would; on an
// edge or a vertex, it goes through interpTriangle, whose rules depend
// only on the shared feature. So every node gets Eval's bits, whichever
// triangle covers it. The triangle must not be flat.
func (t *TIN) scanTriangle(v [3]int, xs, ys []float64, lo, hi int, set func(i, j int, z float64)) (rowLo, rowHi int) {
	a, b, c := t.tri.Point(v[0]), t.tri.Point(v[1]), t.tri.Point(v[2])
	xLo, xHi := lower(lower(a.X, b.X), c.X), upper(upper(a.X, b.X), c.X)
	// The widened row span misses [lo, hi) exactly when this holds; it
	// spares the searches for the triangles of other bands.
	if lo > 0 && xHi < xs[lo-1] || hi < len(xs) && xLo > xs[hi] {
		return 0, -1
	}
	rowLo, rowHi = nodeSpan(xs, xLo, xHi)
	rowLo, rowHi = max(rowLo, lo), min(rowHi, hi-1)
	edges := [3][2]geom.Vec2{{a, b}, {b, c}, {c, a}}
	for i := rowLo; i <= rowHi; i++ {
		// The triangle's y-extent on this row's vertical line; a row just
		// outside the x-extent takes the extent's end.
		x := lower(upper(xs[i], xLo), xHi)
		yLo, yHi := math.Inf(1), math.Inf(-1)
		for _, e := range edges {
			p, q := e[0], e[1]
			if x < lower(p.X, q.X) || x > upper(p.X, q.X) {
				continue
			}
			y0, y1 := p.Y, q.Y // a vertical edge spans both its ends
			if p.X != q.X {
				y0 = p.Y + (x-p.X)*(q.Y-p.Y)/(q.X-p.X)
				y1 = y0
			}
			yLo, yHi = lower(lower(yLo, y0), y1), upper(upper(yHi, y0), y1)
		}
		jLo, jHi := nodeSpan(ys, yLo, yHi)
		for j := jLo; j <= jHi; j++ {
			p := geom.V2(xs[i], ys[j])
			o0 := geom.Orient2D(a, b, p)
			o1 := geom.Orient2D(b, c, p)
			o2 := geom.Orient2D(c, a, p)
			if o0 == geom.Clockwise || o1 == geom.Clockwise || o2 == geom.Clockwise {
				continue
			}
			// A triangle that is not flat interpolates either way.
			var z float64
			if o0 == geom.CounterClockwise && o1 == geom.CounterClockwise && o2 == geom.CounterClockwise {
				z, _ = t.barycentric(v, a, b, c, p)
			} else {
				z, _ = t.interpTriangle(v, p)
			}
			set(i, j, z)
		}
	}
	return rowLo, rowHi
}

// lower and upper are min and max for finite coordinates, without the
// builtins' NaN and signed-zero rules, which cost a third of a scan.
func lower(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

func upper(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// nodeSpan returns the indices of the increasing coordinates cs that lie
// in [lo, hi], widened by one index at each end and clamped to cs: the
// orientation tests, not this arithmetic, decide the nodes at the ends.
func nodeSpan(cs []float64, lo, hi float64) (int, int) {
	return max(firstAtLeast(cs, lo)-1, 0), min(firstAtLeast(cs, math.Nextafter(hi, math.Inf(1))), len(cs)-1)
}

// firstAtLeast returns the first index i with cs[i] >= v, or len(cs). The
// guess assumes even spacing; the comparisons make it exact for any
// increasing cs.
func firstAtLeast(cs []float64, v float64) int {
	n, i := len(cs), 0
	if g := (v - cs[0]) / (cs[n-1] - cs[0]) * float64(n-1); !(g < float64(n)) {
		i = n
	} else if g > 0 {
		i = int(g)
	}
	for i > 0 && cs[i-1] >= v {
		i--
	}
	for i < n && cs[i] < v {
		i++
	}
	return i
}

// Delta computes the paper's δ between a reference field f and an
// approximation g over f's bounds, integrating |f − g| on an n-division
// lattice with the midpoint rule. Typical n for the 100×100 region is 100
// (one-meter cells, mirroring the paper's √A × √A lattice). Both fields
// are filled band by band (latticeScan), f once per size when it is a
// Reference, and per-row sums are accumulated in a fixed order, so the
// result is bit-identical for any GOMAXPROCS.
func Delta(f field.Field, g field.Field, n int) float64 {
	if n < 1 {
		n = 1
	}
	r := f.Bounds()
	xs, ys := latticeNodes(r, n, false)
	gs := newLatticeScan(g, xs, ys)
	var fBand func(w, lo, hi int) []float64
	if ref, ok := f.(*Reference); ok {
		vals := ref.lattice(n, false)
		fBand = func(_, lo, hi int) []float64 { return vals[lo*n : hi*n] }
	} else {
		fBand = newLatticeScan(f, xs, ys).band
	}
	rowSum := make([]float64, n)
	bands.Run(n, bandRows, func(w, lo, hi int) {
		fv, gv := fBand(w, lo, hi), gs.band(w, lo, hi)
		for i := lo; i < hi; i++ {
			s := 0.0
			for k := (i - lo) * n; k < (i-lo+1)*n; k++ {
				s += math.Abs(fv[k] - gv[k])
			}
			rowSum[i] = s
		}
	})
	sum := 0.0
	for _, s := range rowSum {
		sum += s
	}
	return sum * (r.Width() / float64(n)) * (r.Height() / float64(n))
}

// DeltaSamples computes δ between f and the Delaunay reconstruction of the
// given samples — the end-to-end quality of a node placement.
func DeltaSamples(f field.Field, samples []field.Sample, n int) (float64, error) {
	t, err := FromSamples(f.Bounds(), samples)
	if err != nil {
		return 0, err
	}
	return Delta(f, t, n), nil
}

// LocalErrorGrid is the FRA working state: the lattice of local errors
// Err[i][j] = |f(x_i, y_j) − DT(x_i, y_j)| over the region (paper
// Section 4.2, "Local error").
type LocalErrorGrid struct {
	region geom.Rect
	n      int       // lattice divisions per side
	xs, ys []float64 // node (i, j) sits at (xs[i], ys[j])
	ref    []float64 // f at the nodes; shared with a Reference, read only
	err    []float64
	// rowMax[i] is the largest err[i][·] and rowArg[i] the first column
	// attaining it, so the row-major argmax reads n+1 rows, not (n+1)².
	rowMax []float64
	rowArg []int
}

// NewLocalErrorGrid fills the reference values of f on an (n+1)×(n+1)
// lattice (latticeScan), or shares them when f is a Reference.
func NewLocalErrorGrid(f field.Field, n int) *LocalErrorGrid {
	if n < 1 {
		n = 1
	}
	g := &LocalErrorGrid{
		region: f.Bounds(),
		n:      n,
		err:    make([]float64, (n+1)*(n+1)),
		rowMax: make([]float64, n+1),
		rowArg: make([]int, n+1),
	}
	g.xs, g.ys = latticeNodes(g.region, n, true)
	if ref, ok := f.(*Reference); ok {
		g.ref = ref.lattice(n, true)
	} else {
		g.ref = fillLattice(f, g.xs, g.ys)
	}
	return g
}

// N returns the number of divisions per side.
func (g *LocalErrorGrid) N() int { return g.n }

// Bytes returns the size of the grid's own arrays; the reference values
// it may share with a Reference are not counted.
func (g *LocalErrorGrid) Bytes() int64 {
	return 8 * int64(len(g.err)+len(g.rowMax)+len(g.rowArg)+len(g.xs)+len(g.ys))
}

// Pos returns the plane position of lattice node (i, j).
func (g *LocalErrorGrid) Pos(i, j int) geom.Vec2 { return geom.V2(g.xs[i], g.ys[j]) }

// Err returns the current local error at lattice node (i, j).
func (g *LocalErrorGrid) Err(i, j int) float64 { return g.err[g.idx(i, j)] }

func (g *LocalErrorGrid) idx(i, j int) int { return i*(g.n+1) + j }

// Update recomputes every local error against the given reconstruction
// (paper FRA line 11: update(Err) after new triangles are generated), and
// every row maximum. The lattice is scan-filled (latticeScan) in bands;
// results are bit-identical for any GOMAXPROCS.
func (g *LocalErrorGrid) Update(t *TIN) {
	s := newLatticeScan(t, g.xs, g.ys)
	bands.Run(g.n+1, bandRows, func(w, lo, hi int) {
		s.rows(w, lo, hi, g.err[g.idx(lo, 0):])
		for k := g.idx(lo, 0); k < g.idx(hi, 0); k++ {
			g.err[k] = math.Abs(g.ref[k] - g.err[k])
		}
		for i := lo; i < hi; i++ {
			g.updateRowMax(i)
		}
	})
}

// UpdateTriangles recomputes the local errors of the lattice nodes that
// the given triangles of t cover (scanTriangle), and the maxima of the
// rows they touch. It is the incremental counterpart of Update for the
// triangles one insertion created: nodes outside them keep their stored
// errors, which is sound exactly when TIN.AddDirty reported the insertion
// exact, the precondition of this method.
func (g *LocalErrorGrid) UpdateTriangles(t *TIN, tris []delaunay.Triangle) {
	rowLo, rowHi := g.n+1, -1
	for _, tr := range tris {
		lo, hi := t.scanTriangle(tr.V, g.xs, g.ys, 0, g.n+1, func(i, j int, z float64) {
			k := g.idx(i, j)
			g.err[k] = math.Abs(g.ref[k] - z)
		})
		rowLo, rowHi = min(rowLo, lo), max(rowHi, hi)
	}
	for i := rowLo; i <= rowHi; i++ {
		g.updateRowMax(i)
	}
}

// updateRowMax recomputes row i's maximum and the first column attaining
// it. A row holding a NaN error records the NaN instead.
func (g *LocalErrorGrid) updateRowMax(i int) {
	row := g.err[g.idx(i, 0) : g.idx(i, g.n)+1]
	best := 0
	for j, e := range row {
		if e > row[best] {
			best = j
		} else if e != e {
			best = j
			break
		}
	}
	g.rowMax[i], g.rowArg[i] = row[best], best
}

// MaxNode returns the lattice node with the maximum local error (FRA line
// 9) and that error, from the row maxima. Ties resolve to the first node
// in row-major order, the rule of a full scan with a strict comparison.
// ok is false when some error is NaN: the errors then have no maximum.
func (g *LocalErrorGrid) MaxNode() (i, j int, err float64, ok bool) {
	for r, e := range g.rowMax {
		if e != e {
			return 0, 0, 0, false
		}
		if e > g.rowMax[i] {
			i = r
		}
	}
	return i, g.rowArg[i], g.rowMax[i], true
}

// Sum returns the lattice sum of local errors times the cell area — a
// cheap running approximation of δ used for progress reporting.
func (g *LocalErrorGrid) Sum() float64 {
	cell := (g.region.Width() / float64(g.n)) * (g.region.Height() / float64(g.n))
	s := 0.0
	for _, e := range g.err {
		s += e
	}
	return s * cell
}
