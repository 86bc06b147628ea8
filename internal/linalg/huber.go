package linalg

import (
	"math"
	"sort"
)

// DefaultHuberTuning is the classic 1.345σ Huber threshold: 95% asymptotic
// efficiency on clean Gaussian data while bounding any single outlier's
// influence.
const DefaultHuberTuning = 1.345

// defaultHuberIters bounds the IRLS loop; the weights stabilize in a
// handful of rounds for the small systems used here.
const defaultHuberIters = 5

// SolveHuber solves A·x ≈ b under the Huber loss by iteratively
// reweighted least squares: residuals within tuning·σ keep quadratic
// weight 1, larger ones are downweighted to tuning·σ/|r|, with σ
// re-estimated each round from the median absolute residual
// (MAD · 1.4826). It is the degraded-sensing counterpart of Solve —
// outlier samples (radio spikes, stuck sensors) stop dragging the
// curvature fit. tuning ≤ 0 and iters ≤ 0 select the defaults. The first
// iterate is the plain QR solution, so on outlier-free data with a
// numerically tiny residual spread the routine returns it unchanged.
// Every buffer lives in the workspace, so steady-state calls are
// allocation-free; the returned slice is valid only until the
// workspace's next solve.
func (w *LSQ) SolveHuber(a *Matrix, b []float64, tuning float64, iters int) ([]float64, error) {
	if tuning <= 0 {
		tuning = DefaultHuberTuning
	}
	if iters <= 0 {
		iters = defaultHuberIters
	}
	x0, err := w.Solve(a, b)
	if err != nil {
		return nil, err
	}
	m, n := a.rows, a.cols
	x := grow(w.it, n)
	w.it = x
	copy(x, x0)
	res := grow(w.res, m)
	w.res = res
	abs := grow(w.abs, m)
	w.abs = abs
	wb := grow(w.wb, m)
	w.wb = wb
	w.wa.Reuse(m, n)
	for it := 0; it < iters; it++ {
		for i := 0; i < m; i++ {
			s := 0.0 // (A·x)ᵢ, summed in the same order as MulVec
			for j, v := range a.data[i*n : (i+1)*n] {
				s += v * x[j]
			}
			res[i] = s - b[i]
			abs[i] = math.Abs(res[i])
		}
		sigma := 1.4826 * median(abs)
		// A (near-)perfect fit: nothing to reweight, and dividing by the
		// collapsed scale would turn FP dust into "outliers".
		if sigma <= 1e-10*(1+maxAbsVec(b)) {
			return x, nil
		}
		cut := tuning * sigma
		changed := false
		for i := 0; i < m; i++ {
			wt := 1.0
			if r := math.Abs(res[i]); r > cut {
				wt = math.Sqrt(cut / r) // row scale: weight cut/r on the squared term
				changed = true
			}
			wrow := w.wa.data[i*n : (i+1)*n]
			for j, v := range a.data[i*n : (i+1)*n] {
				wrow[j] = wt * v
			}
			wb[i] = wt * b[i]
		}
		if !changed {
			return x, nil // every residual inside the quadratic zone
		}
		nx, err := w.Solve(&w.wa, wb)
		if err != nil {
			// Downweighting degenerated the system (e.g. the inliers became
			// rank-deficient); keep the last well-posed iterate.
			return x, nil
		}
		if vecDelta(nx, x) <= 1e-12*(1+maxAbsVec(nx)) {
			return nx, nil
		}
		copy(x, nx)
	}
	return x, nil
}

// median returns the median of s, sorting s in place. Empty input
// yields 0.
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func maxAbsVec(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func vecDelta(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
