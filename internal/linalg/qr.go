package linalg

import (
	"fmt"
	"math"
)

// LeastSquaresNormal solves the same problem via the normal equations
// AᵀA·x = Aᵀb and Cholesky-free Gaussian elimination. It is less
// numerically robust than QR, allocates, and is no longer faster on the
// curvature fit's 81×6 design; kept as the ablation comparator
// (DESIGN.md §5).
func LeastSquaresNormal(a *Matrix, b []float64) ([]float64, error) {
	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	return SolveDense(ata, atb)
}

// SolveDense solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are not modified.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("%w: SolveDense needs a square matrix, got %dx%d", ErrShape, a.Rows(), a.Cols())
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs has %d entries, want %d", ErrShape, len(b), n)
	}
	aug := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	scale := aug.MaxAbs()
	tol := 1e-13 * (1 + scale)
	for k := 0; k < n; k++ {
		// Partial pivot.
		piv := k
		for i := k + 1; i < n; i++ {
			if math.Abs(aug.At(i, k)) > math.Abs(aug.At(piv, k)) {
				piv = i
			}
		}
		if math.Abs(aug.At(piv, k)) <= tol {
			return nil, ErrSingular
		}
		if piv != k {
			for j := 0; j < n; j++ {
				tmp := aug.At(k, j)
				aug.Set(k, j, aug.At(piv, j))
				aug.Set(piv, j, tmp)
			}
			x[k], x[piv] = x[piv], x[k]
		}
		for i := k + 1; i < n; i++ {
			f := aug.At(i, k) / aug.At(k, k)
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				aug.Set(i, j, aug.At(i, j)-f*aug.At(k, j))
			}
			x[i] -= f * x[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		s := x[k]
		for j := k + 1; j < n; j++ {
			s -= aug.At(k, j) * x[j]
		}
		x[k] = s / aug.At(k, k)
	}
	return x, nil
}
