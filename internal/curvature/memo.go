package curvature

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/geom"
)

// PeakMemo is a per-slot memo of |G| of FitNearest at integer lattice
// points, shared by every node of a swarm that senses one field at one
// time. In a dense swarm neighbouring sensing discs cover the same
// lattice points, and each node fits the curvature around every candidate
// peak in its disc (Eqn 14), so the same fit is computed many times over.
// The memo shares that identical arithmetic — not information: an entry
// is served only when the fit is provably a function of the lattice point
// alone, so every node would compute the same bits on its own.
//
// # Validity
//
// The memo assumes every sample list it is consulted with is a clean
// disc: field.Sampler.DiscTimeInto at the node's position with radius rs
// against one field at one time, with no noise and no corruption — the
// own-position sample first, then the lattice points in ix-major,
// iy-minor order (TestDiscLatticeOrder). FitNearest at a lattice point p
// selects the m samples smallest under (Dist², index). Order the integer
// offsets by (dx²+dy², dx, dy); the first m of them are the canonical
// offsets, and r² is the m-th one's dx²+dy² (4 for m = 12). When
//
//   - every canonical point p + o lies inside the region and passes the
//     sampler's Dist² ≤ rs² test — checked with a relative margin, and at
//     once for the whole radius-r ball when |p−pos| + r ≤ rs — and
//   - Dist²(pos, p) > r², so the own-position sample — the only sample
//     that can sit off the lattice or out of (ix, iy) order — is not
//     among the m nearest,
//
// every other sample sorts after the canonical points, so every node
// selects exactly the canonical points in the same order, the fit sees
// the same samples, and the result is bit-identical. Any other (pos, p)
// pair falls through to a fresh fit.
//
// Concurrent fillers may race on one entry; they store the same bits, so
// the race is benign, and entries are atomics so it is also clean under
// the race detector.
type PeakMemo struct {
	bounds geom.Rect
	rs     float64
	m      int
	offs   []geom.Vec2 // the canonical offsets
	r, r2  float64
	x0, y0 int
	nx, ny int
	vals   []atomic.Uint64
}

// memoEmpty marks an unfilled entry. It is a NaN with the sign bit set,
// which |G| — a math.Abs result — can never be.
const memoEmpty = ^uint64(0)

// maxMemoM bounds the nearest-sample count the memo serves; larger m
// (far beyond any sensing disc in use) leaves every fit unmemoized.
const maxMemoM = 1024

// Reset prepares the memo for one slot: samples come from discs of radius
// rs inside bounds, fits use m nearest samples, and entries cover the
// integer box [x0, x0+nx) × [y0, y0+ny). Every entry starts empty; the
// backing array is reused across Resets.
func (pm *PeakMemo) Reset(bounds geom.Rect, rs float64, m, x0, y0, nx, ny int) {
	if m < 3 {
		m = 3
	}
	pm.bounds, pm.rs = bounds, rs
	if pm.m != m {
		pm.m = m
		pm.offs = canonicalOffsets(m)
		pm.r2 = math.Inf(1) // serve nothing: no disc holds so large a ball
		if pm.offs != nil {
			o := pm.offs[m-1]
			pm.r2 = o.X*o.X + o.Y*o.Y
		}
		pm.r = math.Sqrt(pm.r2)
	}
	pm.x0, pm.y0, pm.nx, pm.ny = x0, y0, nx, ny
	if cap(pm.vals) < nx*ny {
		pm.vals = make([]atomic.Uint64, nx*ny)
	}
	pm.vals = pm.vals[:nx*ny]
	for i := range pm.vals {
		pm.vals[i].Store(memoEmpty)
	}
}

// canonicalOffsets returns the first m integer offsets (dx, dy), the
// zero offset included, in (dx²+dy², dx, dy) order — the ix-major order
// of the disc sampler within each distance. It returns nil above
// maxMemoM.
func canonicalOffsets(m int) []geom.Vec2 {
	if m > maxMemoM {
		return nil
	}
	h := int(math.Sqrt(float64(m))) + 1 // the window holds every offset up to the m-th
	var offs []geom.Vec2
	for dx := -h; dx <= h; dx++ {
		for dy := -h; dy <= h; dy++ {
			offs = append(offs, geom.V2(float64(dx), float64(dy)))
		}
	}
	sort.SliceStable(offs, func(i, j int) bool {
		return offs[i].Len2() < offs[j].Len2()
	})
	return offs[:m:m]
}

// index returns the entry of lattice point p for an m-nearest fit by a
// node sensing at pos, or -1 when the fit is not provably a function of p
// alone (see Validity).
func (pm *PeakMemo) index(pos, p geom.Vec2, m int) int {
	if m < 3 {
		m = 3
	}
	if m != pm.m {
		return -1
	}
	ix, iy := int(p.X), int(p.Y)
	r, c := ix-pm.x0, iy-pm.y0
	if uint(r) >= uint(pm.nx) || uint(c) >= uint(pm.ny) ||
		float64(ix) != p.X || float64(iy) != p.Y {
		return -1
	}
	d2 := pos.Dist2(p)
	if !(d2 > pm.r2) {
		return -1
	}
	b := pm.bounds
	if math.Sqrt(d2)+pm.r <= pm.rs*(1-1e-9) &&
		p.X-pm.r >= b.Min.X && p.X+pm.r <= b.Max.X && p.Y-pm.r >= b.Min.Y && p.Y+pm.r <= b.Max.Y {
		return r*pm.ny + c
	}
	lim := pm.rs * (1 - 1e-9)
	for _, o := range pm.offs {
		q := geom.V2(p.X+o.X, p.Y+o.Y)
		if !b.Contains(q) || q.Dist2(pos) > lim*lim {
			return -1
		}
	}
	return r*pm.ny + c
}

// SetPeakMemo attaches a lattice memo for NearestAbsGaussian to consult,
// or detaches it with nil. The caller guarantees the memo's validity
// assumptions for every sample list passed while it is attached.
func (f *Fitter) SetPeakMemo(pm *PeakMemo) { f.memo = pm }

// MemoHits returns how many NearestAbsGaussian calls over the fitter's
// lifetime were served from a memo instead of a fit.
func (f *Fitter) MemoHits() int64 { return f.memoHits }

// NearestAbsGaussian returns |G| of FitNearest(p, samples, m) for the
// samples a node sensed at pos — the curvature magnitude at one peak
// candidate. With a memo attached it serves a provably shared result from
// the memo, or fits and records it there; otherwise it is exactly the
// fit.
func (f *Fitter) NearestAbsGaussian(pos, p geom.Vec2, samples []field.Sample, m int) (float64, error) {
	k := -1
	if f.memo != nil {
		k = f.memo.index(pos, p, m)
		if k >= 0 {
			if bits := f.memo.vals[k].Load(); bits != memoEmpty {
				f.memoHits++
				return math.Float64frombits(bits), nil
			}
		}
	}
	est, err := f.FitNearest(p, samples, m)
	if err != nil {
		return 0, err
	}
	g := est.AbsGaussian()
	if k >= 0 {
		f.memo.vals[k].Store(math.Float64bits(g))
	}
	return g, nil
}
