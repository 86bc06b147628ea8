package field

import (
	"math"

	"repro/internal/geom"
)

// Lattice is a DynField view of a dynamic field frozen at one time t that
// serves the integer points of a box from a precomputed table and
// delegates every other query to the underlying field. It exists so that a
// swarm whose sensing discs overlap evaluates each lattice point once per
// slot instead of once per disc that covers it: DiscTimeInto against a
// filled Lattice returns readings bit-identical to DiscTimeInto against
// the field itself, because every table entry is the field's own EvalAt
// at the same point and time.
//
// Reset sizes the table for a box; FillRows evaluates it in row bands
// (one row is a fixed x, matching the disc sampler's ix-major order), and
// distinct row ranges may be filled concurrently. Once filled, EvalAt is
// safe for concurrent use. The table's backing array is reused across
// Resets.
type Lattice struct {
	d      DynField
	t      float64
	x0, y0 int
	nx, ny int
	vals   []float64
}

// Reset points the view at d at time t over the integer box
// [x0, x0+nx) × [y0, y0+ny) and sizes the table; FillRows must cover
// every row before the view is read.
func (l *Lattice) Reset(d DynField, t float64, x0, y0, nx, ny int) {
	l.d, l.t = d, t
	l.x0, l.y0, l.nx, l.ny = x0, y0, nx, ny
	if cap(l.vals) < nx*ny {
		l.vals = make([]float64, nx*ny)
	}
	l.vals = l.vals[:nx*ny]
}

// Rows returns the number of rows (distinct x values) of the box.
func (l *Lattice) Rows() int { return l.nx }

// FillRows evaluates the field at every point of rows [lo, hi).
func (l *Lattice) FillRows(lo, hi int) {
	for r := lo; r < hi; r++ {
		x := float64(l.x0 + r)
		row := l.vals[r*l.ny : (r+1)*l.ny]
		for c := range row {
			row[c] = l.d.EvalAt(geom.V2(x, float64(l.y0+c)), l.t)
		}
	}
}

// EvalAt implements DynField: the table entry for an integer point of the
// box at the view's time, the underlying field otherwise. The point must
// match the lattice coordinate bit for bit, so -0 is not served for 0.
func (l *Lattice) EvalAt(p geom.Vec2, t float64) float64 {
	if t == l.t {
		ix, iy := int(p.X), int(p.Y)
		r, c := ix-l.x0, iy-l.y0
		if uint(r) < uint(l.nx) && uint(c) < uint(l.ny) &&
			math.Float64bits(float64(ix)) == math.Float64bits(p.X) &&
			math.Float64bits(float64(iy)) == math.Float64bits(p.Y) {
			return l.vals[r*l.ny+c]
		}
	}
	return l.d.EvalAt(p, t)
}

// Bounds implements DynField.
func (l *Lattice) Bounds() geom.Rect { return l.d.Bounds() }
