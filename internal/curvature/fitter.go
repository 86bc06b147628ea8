package curvature

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/linalg"
)

// Fitter runs repeated curvature fits from persistent scratch buffers. A
// CMA controller performs dozens of fits per slot (its own estimate plus
// one FitNearest per peak candidate), and allocating a design matrix, a
// right-hand side and a QR factorization per fit would dominate the whole
// simulation's allocation profile at swarm scale. A Fitter owns all of
// that scratch plus an m-slot nearest-sample buffer and grows them
// monotonically. The QR and Huber backends run on its linalg.LSQ
// workspace, so their steady-state fits are allocation-free; Huber is the
// hot path of every faulty slot when robust fitting is on. The Normal
// backend calls linalg.LeastSquaresNormal, which allocates; it exists for
// the ablation only.
//
// A Fitter is not safe for concurrent use; give each goroutine (each
// controller) its own.
type Fitter struct {
	method Method
	mat    *linalg.Matrix
	rhs    []float64
	lsq    *linalg.LSQ
	// near and nearKey are the m-slot selection buffer of FitNearest:
	// the nearest samples so far and their squared distances, ascending.
	near    []field.Sample
	nearKey []float64
	// Peak's scratch (peak.go): the window over one call's integer
	// samples and the off-lattice ones, a candidate's picks and offset
	// pattern, and the QR factors of the patterns seen so far.
	indexed        bool
	x0, y0, nx, ny int
	cell, off      []int32
	sel            []pick
	pattern        []byte
	factors        map[string]*linalg.LSQ
}

// flatFloor is the flat-fit floor of Fit, 64 ulps of 1: a fitted
// quadratic part of at most flatFloor·max|z| over the samples is below
// the rounding resolution of the sampled values. On a constant or planar
// field the QR solve returns such FP dust (|G| ≈ 1e-32) instead of an
// exact zero, and the CMA weight, which normalises by the largest |G|
// seen, would turn that dust into a full-strength force.
const flatFloor = 64 * 0x1p-52

// NewFitter returns a fitter using the given least-squares backend.
func NewFitter(method Method) *Fitter {
	return &Fitter{method: method, lsq: new(linalg.LSQ), factors: map[string]*linalg.LSQ{}}
}

// Method returns the fitter's least-squares backend.
func (f *Fitter) Method() Method { return f.method }

// Fit fits the quadratic patch to samples in coordinates centered at
// origin, as the package-level Fit documents, reusing the fitter's
// scratch.
func (f *Fitter) Fit(origin geom.Vec2, samples []field.Sample) (Estimate, error) {
	return f.fit(origin, samples, nil)
}

// fit is Fit, solving with fac when it holds the QR factor of this fit's
// design matrix.
func (f *Fitter) fit(origin geom.Vec2, samples []field.Sample, fac *linalg.LSQ) (Estimate, error) {
	if len(samples) < 3 {
		return Estimate{}, fmt.Errorf("%w: got %d", ErrTooFewSamples, len(samples))
	}
	n := len(samples)
	cols := 6
	if n < 6 {
		cols = 3
	}
	if f.mat == nil {
		f.mat = linalg.NewMatrix(n, cols)
	} else {
		f.mat.Reuse(n, cols)
	}
	if cap(f.rhs) < n {
		f.rhs = make([]float64, n)
	}
	f.rhs = f.rhs[:n]
	r2max, zmax := 0.0, 0.0 // largest x²+y² and |z|, for the flat floor
	for i, s := range samples {
		x, y := s.Pos.X-origin.X, s.Pos.Y-origin.Y
		row := f.mat.RowView(i)
		row[0] = x * x
		row[1] = x * y
		row[2] = y * y
		if cols == 6 {
			row[3] = x
			row[4] = y
			row[5] = 1
		}
		f.rhs[i] = s.Z
		if r2 := row[0] + row[2]; r2 > r2max {
			r2max = r2
		}
		if z := math.Abs(s.Z); z > zmax {
			zmax = z
		}
	}
	var coef []float64
	var err error
	switch {
	case fac != nil:
		coef, err = fac.SolveFactored(f.rhs)
	case f.method == Normal:
		coef, err = linalg.LeastSquaresNormal(f.mat, f.rhs)
	case f.method == Huber:
		coef, err = f.lsq.SolveHuber(f.mat, f.rhs, 0, 0)
	default:
		coef, err = f.lsq.Solve(f.mat, f.rhs)
	}
	if err != nil {
		// Degenerate geometry (e.g. collinear samples): no curvature
		// information. Report a flat estimate rather than failing the
		// node's control loop.
		return Estimate{Samples: n}, nil
	}
	a, b, c := coef[0], coef[1], coef[2]
	// Flat floor: a quadratic part that moves z by no more than flatFloor
	// of the largest sampled |z| anywhere in the disc is rounding dust
	// from the solve, not curvature, so report the patch flat.
	if (math.Abs(a)+math.Abs(b)+math.Abs(c))*r2max <= flatFloor*zmax {
		a, b, c = 0, 0, 0
	}
	g1, g2 := linalg.PrincipalCurvatures(a, b, c)
	return Estimate{
		A: a, B: b, C: c,
		G1: g1, G2: g2,
		Gaussian: g1 * g2,
		Samples:  n,
	}, nil
}

// FitNearest fits using only the m samples nearest to origin — the
// paper's "m nearest-neighbors method" (Section 5.2); m below 3 counts as
// 3, and with fewer than m samples all are used. Nearness is the total
// order (Dist² to origin, then index in samples), and the selected
// samples enter the fit in that order, so the result is Fit over the
// first m samples of a stable sort by Dist²
// (FuzzFitNearest). The selection is a bounded insertion into the
// fitter's m-slot buffer: one comparison per sample against the current
// m-th key, and a shift only for samples that enter the buffer.
func (f *Fitter) FitNearest(origin geom.Vec2, samples []field.Sample, m int) (Estimate, error) {
	if m < 3 {
		m = 3
	}
	near, key := f.near[:0], f.nearKey[:0]
	for _, s := range samples {
		k := s.Pos.Dist2(origin)
		j := len(key)
		if j < m {
			near, key = append(near, s), append(key, k)
		} else if k < key[m-1] {
			j = m - 1 // evict the current m-th nearest
		} else {
			continue
		}
		// Shift strictly farther entries up; an equal key stays ahead, as
		// it came first in samples.
		for ; j > 0 && key[j-1] > k; j-- {
			near[j], key[j] = near[j-1], key[j-1]
		}
		near[j], key[j] = s, k
	}
	f.near, f.nearKey = near, key
	return f.Fit(origin, near)
}
