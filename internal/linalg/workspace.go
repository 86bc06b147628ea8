package linalg

import (
	"fmt"
	"math"
)

// LSQ is the package's Householder least-squares kernel, held as a
// reusable workspace. The curvature estimator runs tens of QR fits per
// node per simulation slot; at swarm scale allocating a packed factor, a
// diagonal and two vectors per fit would dominate the allocation profile.
// An LSQ owns those buffers, plus the Huber IRLS scratch of SolveHuber,
// and grows them monotonically, so steady-state solves are
// allocation-free. The zero value is ready to use. An LSQ is not safe
// for concurrent use.
type LSQ struct {
	qr   []float64 // packed reflectors (below diagonal) and R (upper part)
	rdia []float64 // diagonal of R
	y    []float64 // Qᵀ·b scratch
	x    []float64 // solution buffer, returned by Solve
	// SolveHuber scratch: residuals, their absolute values (sorted in
	// place for the median), the weighted right-hand side and matrix, and
	// the IRLS iterate, which needs its own buffer because every inner
	// Solve overwrites x.
	res, abs, wb, it []float64
	wa               Matrix
	m, n             int   // shape of the last Factor
	err              error // outcome of the last Factor
}

// grow returns buf resized to n, reusing its backing array when capacity
// allows. Contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Solve computes the least-squares solution x minimizing ‖A·x − b‖₂ by
// Householder QR, as Factor(a) then SolveFactored(b). The returned slice
// is owned by the workspace and valid only until its next solve. It
// returns ErrShape when A has more columns than rows or b does not match,
// and ErrSingular for rank-deficient systems.
func (w *LSQ) Solve(a *Matrix, b []float64) ([]float64, error) {
	_ = w.Factor(a) // SolveFactored reports its error
	return w.SolveFactored(b)
}

// Factor computes the Householder QR factorization of A into the
// workspace, for any number of SolveFactored calls against it. It returns
// ErrShape when A has more columns than rows and ErrSingular for a
// rank-deficient A; SolveFactored then returns the same error.
//
// The packed factor is held column-major (column k is qr[k*m:(k+1)*m]), so
// every norm, reflector, Qᵀ·b and dot-product loop runs over contiguous
// slices, and each column norm is the two-pass colNorm.
func (w *LSQ) Factor(a *Matrix) error {
	m, n := a.rows, a.cols
	w.m, w.n, w.err = m, n, nil
	if m < n {
		w.err = fmt.Errorf("%w: QR needs rows >= cols, got %dx%d", ErrShape, m, n)
		return w.err
	}
	qr := grow(w.qr, m*n)
	w.qr = qr
	for i := 0; i < m; i++ {
		for j, v := range a.data[i*n : (i+1)*n] {
			qr[j*m+i] = v
		}
	}
	rdia := grow(w.rdia, n)
	w.rdia = rdia
	for k := 0; k < n; k++ {
		// v is the k-th column from the diagonal down.
		v := qr[k*m+k : (k+1)*m]
		nrm := colNorm(v)
		if nrm != 0 {
			if v[0] < 0 {
				nrm = -nrm
			}
			for i := range v {
				v[i] /= nrm
			}
			v[0]++
			// Apply the reflector to the remaining columns.
			for j := k + 1; j < n; j++ {
				c := qr[j*m+k : (j+1)*m]
				c = c[:len(v)]
				s := 0.0
				for i, vi := range v {
					s += vi * c[i]
				}
				s = -s / v[0]
				for i, vi := range v {
					c[i] += s * vi
				}
			}
		}
		rdia[k] = -nrm
	}
	// Rank test: the tolerance scales with the largest absolute entry of
	// the packed factor.
	scale := 0.0
	for _, v := range qr {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	tol := 1e-12 * (1 + scale)
	for _, d := range rdia {
		if math.Abs(d) <= tol {
			w.err = ErrSingular
		}
	}
	return w.err
}

// SolveFactored is the rest of Solve for the A of the last Factor: the
// solution x of A·x ≈ b, valid until the workspace's next solve, or the
// errors Solve would return.
func (w *LSQ) SolveFactored(b []float64) ([]float64, error) {
	m, n, qr, rdia := w.m, w.n, w.qr, w.rdia
	if m >= n && len(b) != m {
		return nil, fmt.Errorf("%w: rhs has %d entries, want %d", ErrShape, len(b), m)
	}
	if w.err != nil {
		return nil, w.err
	}
	y := grow(w.y, m)
	w.y = y
	copy(y, b)
	// Apply Qᵀ to b.
	for k := 0; k < n; k++ {
		v := qr[k*m+k : (k+1)*m]
		yk := y[k:]
		yk = yk[:len(v)]
		s := 0.0
		for i, vi := range v {
			s += vi * yk[i]
		}
		if v[0] == 0 {
			continue
		}
		s = -s / v[0]
		for i, vi := range v {
			yk[i] += s * vi
		}
	}
	// Back-substitute R·x = y; R's entry (k, j) is qr[j*m+k].
	x := grow(w.x, n)
	w.x = x
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= qr[j*m+k] * x[j]
		}
		x[k] = s / rdia[k]
	}
	return x, nil
}

// colNorm returns ‖v‖₂ in two passes: the largest magnitude amax, then
// amax·√Σ(vᵢ/amax)². Each scaled term lies in [−1, 1], so the sum of
// squares neither overflows nor underflows where the plain Σvᵢ² would
// (|v| beyond about 1e154 or below about 1e-154), and no term waits on the
// previous one's square root as a math.Hypot chain does. It divides by
// amax rather than multiplying by 1/amax, which overflows for a subnormal
// amax and turns a zero entry into 0·∞ = NaN.
func colNorm(v []float64) float64 {
	amax := 0.0
	for _, vi := range v {
		if a := math.Abs(vi); a > amax {
			amax = a
		}
	}
	if amax == 0 {
		return 0
	}
	ss := 0.0
	for _, vi := range v {
		t := vi / amax
		ss += t * t
	}
	return amax * math.Sqrt(ss)
}
