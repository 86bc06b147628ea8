// Package linalg implements the small dense linear-algebra substrate needed
// by the curvature estimator: matrices, Householder QR factorization,
// least-squares solving of overdetermined systems (paper Eqn 11), direct
// solvers for tiny systems and the symmetric 2×2 eigen decomposition behind
// principal curvatures.
//
// Everything here is written against the standard library only; the
// matrices involved are tiny (m×6 quadric designs from 6 samples up to
// m ≈ 80 for Rs = 5, m×3 below 6 samples), so clarity wins over blocking
// or SIMD tricks.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible matrix shapes")

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("linalg: singular or rank-deficient system")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-filled rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Reuse reshapes m to rows×cols in place, reusing the backing storage
// when its capacity allows. Element values are unspecified afterwards;
// callers must write every cell before reading. It exists so hot loops
// (the curvature fitter rebuilding small design matrices tens of times
// per node per slot) can refill a persistent matrix without allocating.
func (m *Matrix) Reuse(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	}
	m.data = m.data[:n]
	m.rows, m.cols = rows, cols
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.cols != n.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.rows, m.cols, n.rows, n.cols)
	}
	out := NewMatrix(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				out.data[i*n.cols+j] += a * n.data[k*n.cols+j]
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrShape, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for j := 0; j < m.cols; j++ {
			s += m.data[i*m.cols+j] * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns m + n.
func (m *Matrix) Add(n *Matrix) (*Matrix, error) {
	if m.rows != n.rows || m.cols != n.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, m.rows, m.cols, n.rows, n.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += n.data[i]
	}
	return out, nil
}

// Sub returns m - n.
func (m *Matrix) Sub(n *Matrix) (*Matrix, error) {
	if m.rows != n.rows || m.cols != n.cols {
		return nil, fmt.Errorf("%w: %dx%d - %dx%d", ErrShape, m.rows, m.cols, n.rows, n.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= n.data[i]
	}
	return out, nil
}

// RowView returns row i as a slice borrowing the matrix's backing storage:
// writes through it update the matrix directly. It exists for hot fill
// loops (the curvature fitter writes every cell of a small design matrix
// tens of times per node per slot) where per-element Set bounds checks are
// measurable. The slice is only valid until the next Reuse.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String implements fmt.Stringer with one text row per matrix row.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%9.4g", m.At(i, j))
		}
	}
	return b.String()
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: vec(%d) · vec(%d)", ErrShape, len(a), len(b))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}
