package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestFromRowsRagged(t *testing.T) {
	_, err := FromRows([][]float64{{1, 2}, {3}})
	if !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Errorf("got %dx%d", m.Rows(), m.Cols())
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestMatrixAtSetPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds access")
		}
	}()
	m.At(2, 0)
}

func TestMatrixMul(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromRows(t, [][]float64{{19, 22}, {43, 50}})
	if s, werr := got.Sub(want); werr != nil || s.MaxAbs() > 1e-12 {
		t.Errorf("Mul =\n%v\nwant\n%v", got, want)
	}
}

func TestMatrixMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestMatrixMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		ai, err := a.Mul(Identity(n))
		if err != nil {
			t.Fatal(err)
		}
		d, err := ai.Sub(a)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxAbs() > 1e-12 {
			t.Fatalf("A·I != A, diff %v", d.MaxAbs())
		}
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Errorf("T[%d][%d] mismatch", j, i)
			}
		}
	}
	// (Aᵀ)ᵀ == A
	if d, _ := at.T().Sub(a); d.MaxAbs() != 0 {
		t.Error("double transpose changed matrix")
	}
}

func TestMatrixAddSub(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}})
	b := mustFromRows(t, [][]float64{{3, 5}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0, 0) != 4 || sum.At(0, 1) != 7 {
		t.Errorf("Add = %v", sum)
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := diff.Sub(a); d.MaxAbs() != 0 {
		t.Error("a+b-b != a")
	}
	if _, err := a.Add(NewMatrix(2, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
	if _, err := a.Sub(NewMatrix(2, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestMatrixRowColClone(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	if r := a.RowView(1); r[0] != 3 || r[1] != 4 {
		t.Errorf("RowView = %v", r)
	}
	cl := a.Clone()
	cl.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}

func TestMatrixNorms(t *testing.T) {
	a := mustFromRows(t, [][]float64{{3, 0}, {0, 4}})
	if got := a.FrobeniusNorm(); got != 5 {
		t.Errorf("Frobenius = %v", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	d, err := Dot([]float64{1, 2}, []float64{3, 4})
	if err != nil || d != 11 {
		t.Errorf("Dot = %v, %v", d, err)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestMatrixString(t *testing.T) {
	s := mustFromRows(t, [][]float64{{1, 2}, {3, 4}}).String()
	if len(s) == 0 || s[0] == '\n' {
		t.Errorf("String = %q", s)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		p, q, r, s := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a, b, c := randMat(rng, p, q), randMat(rng, q, r), randMat(rng, r, s)
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		d, err := abc1.Sub(abc2)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxAbs() > 1e-9*(1+abc1.MaxAbs()) {
			t.Fatalf("(AB)C != A(BC): diff %v", d.MaxAbs())
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestFrobeniusSubadditiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		r, c := 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := randMat(rng, r, c), randMat(rng, r, c)
		sum, err := a.Add(b)
		if err != nil {
			t.Fatal(err)
		}
		if sum.FrobeniusNorm() > a.FrobeniusNorm()+b.FrobeniusNorm()+1e-12 {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative dims")
		}
	}()
	NewMatrix(-1, 2)
}

func TestMaxAbsEmpty(t *testing.T) {
	if got := NewMatrix(0, 0).MaxAbs(); got != 0 {
		t.Errorf("MaxAbs(empty) = %v", got)
	}
	if got := math.Abs(NewMatrix(0, 0).FrobeniusNorm()); got != 0 {
		t.Errorf("Frobenius(empty) = %v", got)
	}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}
