package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestQRShapeError(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestQRSolveExactSquare(t *testing.T) {
	a := mustFromRows(t, [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestQRSolveRhsShapeError(t *testing.T) {
	var w LSQ
	if _, err := w.Solve(Identity(3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := mustFromRows(t, [][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestLeastSquaresRecoversQuadratic(t *testing.T) {
	// Build samples of z = a·x² + b·x·y + c·y² exactly and confirm exact
	// coefficient recovery — the curvature-fit path of paper Eqn 11.
	const wantA, wantB, wantC = 0.5, -1.25, 2.0
	rng := rand.New(rand.NewSource(2))
	var rows [][]float64
	var rhs []float64
	for i := 0; i < 40; i++ {
		x, y := rng.Float64()*4-2, rng.Float64()*4-2
		rows = append(rows, []float64{x * x, x * y, y * y})
		rhs = append(rhs, wantA*x*x+wantB*x*y+wantC*y*y)
	}
	a := mustFromRows(t, rows)
	x, err := LeastSquares(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{wantA, wantB, wantC} {
		if math.Abs(x[i]-want) > 1e-9 {
			t.Errorf("coef[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	// Property: the LS solution's residual must not exceed the residual of
	// any perturbed solution.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		m, n := 12, 3
		a := randMat(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			continue // singular random draw; acceptable to skip
		}
		r0, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 10; p++ {
			xp := make([]float64, n)
			copy(xp, x)
			xp[rng.Intn(n)] += rng.NormFloat64() * 0.1
			rp, err := Residual(a, xp, b)
			if err != nil {
				t.Fatal(err)
			}
			if rp < r0-1e-9 {
				t.Fatalf("perturbed residual %v < LS residual %v", rp, r0)
			}
		}
	}
}

func TestLeastSquaresNormalAgreesWithQR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		m := 10 + rng.Intn(30)
		a := NewMatrix(m, 3)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			x, y := rng.Float64()*4-2, rng.Float64()*4-2
			a.Set(i, 0, x*x)
			a.Set(i, 1, x*y)
			a.Set(i, 2, y*y)
			b[i] = rng.NormFloat64()
		}
		xq, err1 := LeastSquares(a, b)
		xn, err2 := LeastSquaresNormal(a, b)
		if err1 != nil || err2 != nil {
			continue
		}
		for i := range xq {
			if math.Abs(xq[i]-xn[i]) > 1e-6*(1+math.Abs(xq[i])) {
				t.Fatalf("trial %d coef %d: QR %v vs normal %v", trial, i, xq[i], xn[i])
			}
		}
	}
}

func TestSolveDense(t *testing.T) {
	a := mustFromRows(t, [][]float64{{0, 1}, {1, 0}}) // needs pivoting
	x, err := SolveDense(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveDenseErrors(t *testing.T) {
	if _, err := SolveDense(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: want ErrShape, got %v", err)
	}
	if _, err := SolveDense(Identity(2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("bad rhs: want ErrShape, got %v", err)
	}
	sing := mustFromRows(t, [][]float64{{1, 2}, {2, 4}})
	if _, err := SolveDense(sing, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestSolveDenseRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		a := randMat(rng, n, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveDense(a, b)
		if errors.Is(err, ErrSingular) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestResidualZeroForExactSolution(t *testing.T) {
	a := Identity(3)
	r, err := Residual(a, []float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("residual = %v", r)
	}
}

// LeastSquares solves the overdetermined system A·x ≈ b in the
// least-squares sense by Householder QR (LSQ.Solve) on a fresh workspace,
// so the caller owns the result. It is the workhorse behind the curvature
// fit of paper Eqn 11.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	var w LSQ
	return w.Solve(a, b)
}

// Residual returns ‖A·x − b‖₂, useful for validating least-squares fits.
func Residual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return 0, err
	}
	if len(ax) != len(b) {
		return 0, fmt.Errorf("%w: residual vec(%d) vs vec(%d)", ErrShape, len(ax), len(b))
	}
	s := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}
