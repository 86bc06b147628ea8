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
// allocation-free. LeastSquares and LeastSquaresHuber run it on a fresh
// workspace. The zero value is ready to use. An LSQ is not safe for
// concurrent use.
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
// Householder QR, reusing the workspace's buffers. The returned slice is
// owned by the workspace and valid only until its next solve. It returns
// ErrShape when A has more columns than rows or b does not match, and
// ErrSingular for rank-deficient systems.
func (w *LSQ) Solve(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, fmt.Errorf("%w: QR needs rows >= cols, got %dx%d", ErrShape, m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("%w: rhs has %d entries, want %d", ErrShape, len(b), m)
	}
	qr := grow(w.qr, m*n)
	w.qr = qr
	copy(qr, a.data)
	rdia := grow(w.rdia, n)
	w.rdia = rdia
	for k := 0; k < n; k++ {
		// Norm of the k-th column below (and including) the diagonal.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr[i*n+k])
		}
		if nrm != 0 {
			if qr[k*n+k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr[i*n+k] = qr[i*n+k] / nrm
			}
			qr[k*n+k] = qr[k*n+k] + 1
			// Apply the reflector to the remaining columns.
			for j := k + 1; j < n; j++ {
				s := 0.0
				for i := k; i < m; i++ {
					s += qr[i*n+k] * qr[i*n+j]
				}
				s = -s / qr[k*n+k]
				for i := k; i < m; i++ {
					qr[i*n+j] = qr[i*n+j] + s*qr[i*n+k]
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
			return nil, ErrSingular
		}
	}
	y := grow(w.y, m)
	w.y = y
	copy(y, b)
	// Apply Qᵀ to b.
	for k := 0; k < n; k++ {
		s := 0.0
		for i := k; i < m; i++ {
			s += qr[i*n+k] * y[i]
		}
		if qr[k*n+k] == 0 {
			continue
		}
		s = -s / qr[k*n+k]
		for i := k; i < m; i++ {
			y[i] += s * qr[i*n+k]
		}
	}
	// Back-substitute R·x = y.
	x := grow(w.x, n)
	w.x = x
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= qr[k*n+j] * x[j]
		}
		x[k] = s / rdia[k]
	}
	return x, nil
}
