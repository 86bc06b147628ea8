package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// lineSystem builds the design matrix for y = c0 + c1·x over xs.
func lineSystem(xs, ys []float64) (*Matrix, []float64) {
	a := NewMatrix(len(xs), 2)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
	}
	return a, ys
}

func TestHuberMatchesOLSOnCleanData(t *testing.T) {
	// Exact linear data: Huber must return the QR solution untouched.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*x
	}
	a, b := lineSystem(xs, ys)
	ols, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := LeastSquaresHuber(a, b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ols {
		if ols[i] != hub[i] {
			t.Errorf("coef %d: huber %v != ols %v on clean data", i, hub[i], ols[i])
		}
	}
}

func TestHuberResistsOutliers(t *testing.T) {
	// y = 1 + 2x with mild noise plus two gross outliers. OLS bends toward
	// the outliers; Huber must stay near the true line.
	rng := rand.New(rand.NewSource(4))
	var xs, ys []float64
	for i := 0; i < 30; i++ {
		x := float64(i) / 3
		xs = append(xs, x)
		ys = append(ys, 1+2*x+0.05*rng.NormFloat64())
	}
	ys[5] += 40
	ys[20] -= 60
	a, b := lineSystem(xs, ys)
	ols, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := LeastSquaresHuber(a, b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	olsErr := math.Abs(ols[0]-1) + math.Abs(ols[1]-2)
	hubErr := math.Abs(hub[0]-1) + math.Abs(hub[1]-2)
	if hubErr > 0.2 {
		t.Errorf("huber fit off by %v: coefs %v", hubErr, hub)
	}
	if hubErr >= olsErr {
		t.Errorf("huber (%v) no better than OLS (%v) with gross outliers", hubErr, olsErr)
	}
}

func TestHuberDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewMatrix(20, 3)
	b := make([]float64, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	b[3] += 25
	x1, err := LeastSquaresHuber(a, b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := LeastSquaresHuber(a, b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("non-deterministic solution: %v vs %v", x1, x2)
		}
	}
}

func TestHuberShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3) // underdetermined
	if _, err := LeastSquaresHuber(a, []float64{1, 2}, 0, 0); err == nil {
		t.Error("underdetermined system did not error")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// LeastSquaresHuber solves the overdetermined system A·x ≈ b under the
// Huber loss by iteratively reweighted least squares (see LSQ.SolveHuber)
// on a fresh workspace, so the caller owns the result.
func LeastSquaresHuber(a *Matrix, b []float64, tuning float64, iters int) ([]float64, error) {
	var w LSQ
	return w.SolveHuber(a, b, tuning, iters)
}
