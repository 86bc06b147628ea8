package curvature

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/linalg"
)

// Limits of Peak's lattice walk; past them a call or a candidate is
// fitted by the FitNearest scan instead, with the same bits. Indexed
// coordinates stay below maxLatticeCoord, so their differences are exact;
// a sensing disc has one off-lattice sample, the node's own; the window
// holds at most windowFill cells per sample plus windowSlack; m = 12
// walks to a radius of about 2; a 2000-node forest swarm caches about 60
// factors per fitter.
const (
	maxLatticeCoord         = 1 << 40
	maxOffLattice           = 8
	windowFill, windowSlack = 4, 64
	maxWalk                 = 16
	maxFactors              = 1024
)

// offset is an integer offset of the walk and its d² = dx² + dy².
type offset struct {
	dx, dy int8
	d2     int32
}

// walk holds every offset with d² ≤ maxWalk² in (d², dx, dy) order.
var walk = func() (w []offset) {
	for dx := -maxWalk; dx <= maxWalk; dx++ {
		for dy := -maxWalk; dy <= maxWalk; dy++ {
			if d2 := dx*dx + dy*dy; d2 <= maxWalk*maxWalk {
				w = append(w, offset{int8(dx), int8(dy), int32(d2)})
			}
		}
	}
	slices.SortFunc(w, func(a, b offset) int {
		return cmp.Or(cmp.Compare(a.d2, b.d2), cmp.Compare(a.dx, b.dx), cmp.Compare(a.dy, b.dy))
	})
	return w
}()

// pick is a sample the walk selects: its Dist² to the candidate, its
// index, and its integer offset, or offLattice twice when it is off the
// lattice, which no pattern of lattice offsets holds.
type pick struct {
	key    float64
	idx    int32
	dx, dy int8
}

const offLattice = math.MinInt8

// Peak returns the sample position with the highest |G| of
// FitNearest(s.Pos, samples, m) over the samples s within inner of pos,
// and that |G|: the peak candidates of a CMA node (Eqn 14). An earlier
// sample wins a tie; with none scoring above zero it returns pos and 0.
//
// Every |G| is FitNearest's, bit for bit, and reads only samples. The
// call indexes its integer samples once in a window, and an integer
// candidate's m nearest come from a walk over it (latticeAbsG); other
// candidates, and calls past the walk's limits, use the FitNearest scan.
func (f *Fitter) Peak(pos geom.Vec2, samples []field.Sample, m int, inner float64) (geom.Vec2, float64) {
	f.indexed = f.index(samples)
	best, bestG := pos, 0.0
	for i, s := range samples {
		if s.Pos.Dist2(pos) > inner*inner {
			continue
		}
		g, ok := f.latticeAbsG(i, samples, max(m, 3))
		if !ok {
			est, _ := f.FitNearest(s.Pos, samples, m) // too few samples: est is zero
			g = est.AbsGaussian()
		}
		if g > bestG {
			best, bestG = s.Pos, g
		}
	}
	return best, bestG
}

// latticeCoord returns p's integer coordinates when p sits on the integer
// lattice within maxLatticeCoord.
func latticeCoord(p geom.Vec2) (int, int, bool) {
	ix, iy := int(p.X), int(p.Y)
	return ix, iy, math.Abs(p.X) < maxLatticeCoord && math.Abs(p.Y) < maxLatticeCoord &&
		float64(ix) == p.X && float64(iy) == p.Y
}

// index fills the window over samples — cell (ix−x0)·ny + iy−y0 holds 1 +
// the index of the sample at (ix, iy), or 0 — and lists the off-lattice
// samples. It reports false, and the call scans, on a duplicate integer
// position, a NaN coordinate (whose Dist² no total order ranks), too many
// off-lattice samples or too sparse a window.
func (f *Fitter) index(samples []field.Sample) bool {
	f.off = f.off[:0]
	x0, y0, x1, y1 := math.MaxInt, math.MaxInt, math.MinInt, math.MinInt
	for i, s := range samples {
		ix, iy, ok := latticeCoord(s.Pos)
		if !ok {
			if math.IsNaN(s.Pos.X) || math.IsNaN(s.Pos.Y) || len(f.off) == maxOffLattice {
				return false
			}
			f.off = append(f.off, int32(i))
			continue
		}
		x0, x1, y0, y1 = min(x0, ix), max(x1, ix), min(y0, iy), max(y1, iy)
	}
	nx, ny, cells := x1-x0+1, y1-y0+1, windowFill*len(samples)+windowSlack
	if x0 > x1 || nx > cells || ny > cells || nx*ny > cells {
		return false
	}
	f.x0, f.y0, f.nx, f.ny = x0, y0, nx, ny
	f.cell = slices.Grow(f.cell[:0], nx*ny)[:nx*ny]
	clear(f.cell)
	for i, s := range samples {
		if ix, iy, ok := latticeCoord(s.Pos); ok {
			c := &f.cell[(ix-x0)*ny+iy-y0]
			if *c != 0 {
				return false
			}
			*c = int32(i + 1)
		}
	}
	return true
}

// latticeAbsG returns |G| of FitNearest(samples[i].Pos, samples, m), for
// m ≥ 3, or false when the call is not indexed, sample i is off the
// lattice or fewer than m lattice samples lie within maxWalk of it. The
// walk visits integer offsets in d² order to the shell of the m-th lattice
// hit and sorts the hits and the off-lattice samples by (Dist², index):
// FitNearest's total order, since every lattice d² is exact. When all m
// sit on the lattice, x = dx and y = dy exactly, so the QR design matrix
// depends on the offset pattern alone, and its factor is cached per
// pattern. Huber and Normal fit the selection with Fit.
func (f *Fitter) latticeAbsG(i int, samples []field.Sample, m int) (float64, bool) {
	p := samples[i].Pos
	ix, iy, ok := latticeCoord(p)
	if !ok || !f.indexed {
		return 0, false
	}
	// Every lattice hit past the m-th hit's shell sorts after m others.
	sel, t, last, hits := f.sel[:0], 0, int32(-1), 0
	for ; t < len(walk) && (last < 0 || walk[t].d2 == last); t++ {
		o := walk[t]
		cx, cy := ix+int(o.dx)-f.x0, iy+int(o.dy)-f.y0
		if uint(cx) >= uint(f.nx) || uint(cy) >= uint(f.ny) || f.cell[cx*f.ny+cy] == 0 {
			continue
		}
		sel = append(sel, pick{float64(o.d2), f.cell[cx*f.ny+cy] - 1, o.dx, o.dy})
		if hits++; hits == m {
			last = o.d2
		}
	}
	if f.sel = sel; t == len(walk) && last < 0 {
		return 0, false
	}
	for _, j := range f.off {
		sel = append(sel, pick{samples[j].Pos.Dist2(p), j, offLattice, offLattice})
	}
	// Insertion sort by (key, index): the hits arrive nearly in order.
	for a := 1; a < len(sel); a++ {
		for b := a; b > 0 && (sel[b-1].key > sel[b].key || sel[b-1].key == sel[b].key && sel[b-1].idx > sel[b].idx); b-- {
			sel[b-1], sel[b] = sel[b], sel[b-1]
		}
	}
	near, pattern, lattice := f.near[:0], f.pattern[:0], f.method == QR
	for _, s := range sel[:m] {
		near, pattern = append(near, samples[s.idx]), append(pattern, byte(s.dx), byte(s.dy))
		lattice = lattice && s.dx != offLattice
	}
	f.sel, f.near, f.pattern = sel, near, pattern
	// Only a QR fitter caches factors, and only of lattice patterns.
	fac := f.factors[string(pattern)]
	est, _ := f.fit(p, near, fac) // m ≥ 3 samples: no error
	if lattice && fac == nil && len(f.factors) < maxFactors {
		// The workspace that just factored this pattern becomes its
		// cache entry.
		f.factors[string(pattern)], f.lsq = f.lsq, new(linalg.LSQ)
	}
	return est.AbsGaussian(), true
}
