package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigenSym2Known(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c float64
		l1, l2  float64
	}{
		{"diagonal", 2, 0, 5, 2, 5},
		{"identity", 1, 0, 1, 1, 1},
		{"offdiag", 0, 1, 0, -1, 1},
		{"negative", -3, 0, -1, -3, -1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			l1, l2 := EigenSym2(tc.a, tc.b, tc.c)
			if math.Abs(l1-tc.l1) > 1e-12 || math.Abs(l2-tc.l2) > 1e-12 {
				t.Errorf("got (%v,%v), want (%v,%v)", l1, l2, tc.l1, tc.l2)
			}
		})
	}
}

func TestEigenSym2TraceDetProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		a, b, c = math.Mod(a, 1e3), math.Mod(b, 1e3), math.Mod(c, 1e3)
		if math.IsNaN(a + b + c) {
			return true
		}
		l1, l2 := EigenSym2(a, b, c)
		scale := 1 + math.Abs(a) + math.Abs(b) + math.Abs(c)
		traceOK := math.Abs((l1+l2)-(a+c)) <= 1e-9*scale
		detOK := math.Abs(l1*l2-(a*c-b*b)) <= 1e-6*scale*scale
		return traceOK && detOK && l1 <= l2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrincipalCurvaturesPaperFormula(t *testing.T) {
	// Verbatim check of paper Eqns 12-13.
	a, b, c := 1.5, 2.0, -0.5
	d := math.Sqrt((a-c)*(a-c) + b*b)
	g1, g2 := PrincipalCurvatures(a, b, c)
	if math.Abs(g1-(a+c-d)) > 1e-15 || math.Abs(g2-(a+c+d)) > 1e-15 {
		t.Errorf("got (%v,%v)", g1, g2)
	}
	if g1 > g2 {
		t.Error("g1 > g2")
	}
}

func TestGaussianCurvatureSigns(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c float64
		sign    int // -1 saddle, 0 flat/parabolic, +1 elliptic
	}{
		{"bowl", 1, 0, 1, 1},
		{"dome", -1, 0, -1, 1},
		{"saddle", 1, 0, -1, -1},
		{"cylinder", 1, 0, 0, 0},
		{"flat", 0, 0, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g1, g2 := PrincipalCurvatures(tc.a, tc.b, tc.c)
			g := g1 * g2 // Gaussian curvature, paper Section 5.2
			switch {
			case tc.sign > 0 && g <= 0:
				t.Errorf("want positive, got %v", g)
			case tc.sign < 0 && g >= 0:
				t.Errorf("want negative, got %v", g)
			case tc.sign == 0 && math.Abs(g) > 1e-12:
				t.Errorf("want zero, got %v", g)
			}
		})
	}
}

func TestEigenVectorsSym2(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		l1, l2 := EigenSym2(a, b, c)
		v1, v2 := EigenVectorsSym2(a, b, c)
		checkEigPair(t, a, b, c, l1, v1)
		checkEigPair(t, a, b, c, l2, v2)
		// Distinct eigenvalues must give orthogonal eigenvectors.
		if math.Abs(l1-l2) > 1e-6 {
			dot := v1[0]*v2[0] + v1[1]*v2[1]
			if math.Abs(dot) > 1e-6 {
				t.Fatalf("eigenvectors not orthogonal: dot=%v", dot)
			}
		}
	}
}

func checkEigPair(t *testing.T, a, b, c, l float64, v [2]float64) {
	t.Helper()
	// ‖(A - l·I)·v‖ should vanish.
	rx := (a-l)*v[0] + b*v[1]
	ry := b*v[0] + (c-l)*v[1]
	scale := 1 + math.Abs(a) + math.Abs(b) + math.Abs(c) + math.Abs(l)
	if math.Hypot(rx, ry) > 1e-9*scale {
		t.Fatalf("not an eigenvector: residual %v for l=%v", math.Hypot(rx, ry), l)
	}
	if math.Abs(math.Hypot(v[0], v[1])-1) > 1e-12 {
		t.Fatalf("eigenvector not unit length: %v", v)
	}
}

func TestEigenVectorsIsotropic(t *testing.T) {
	v1, v2 := EigenVectorsSym2(2, 0, 2)
	for _, v := range [][2]float64{v1, v2} {
		if math.Abs(math.Hypot(v[0], v[1])-1) > 1e-12 {
			t.Errorf("isotropic eigenvector not unit: %v", v)
		}
	}
}

// EigenSym2 returns the eigenvalues (l1 ≤ l2) of the symmetric 2×2 matrix
//
//	| a  b |
//	| b  c |
//
// in closed form. For the second fundamental form of the quadratic patch
// z = a·x² + b·x·y + c·y² evaluated at the origin, the shape operator is
// the symmetric matrix {{2a, b}, {b, 2c}}, whose eigenvalues are the
// principal curvatures; the paper's Eqns 12–13 use the (scaled) variant
// g1,2 = a + c ∓ √((a−c)² + b²), which PrincipalCurvatures implements
// verbatim to stay faithful to the reproduced algorithm.
func EigenSym2(a, b, c float64) (l1, l2 float64) {
	tr := a + c
	det := a*c - b*b
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	return tr/2 - disc, tr/2 + disc
}

// EigenVectorsSym2 returns unit eigenvectors corresponding to the
// eigenvalues returned by EigenSym2, as rows (v1 for l1, v2 for l2).
func EigenVectorsSym2(a, b, c float64) (v1, v2 [2]float64) {
	l1, l2 := EigenSym2(a, b, c)
	v1 = eigVec2(a, b, c, l1)
	v2 = eigVec2(a, b, c, l2)
	return v1, v2
}

func eigVec2(a, b, c, l float64) [2]float64 {
	// (A - l·I) v = 0. Pick the more numerically stable row.
	r1 := [2]float64{a - l, b}
	r2 := [2]float64{b, c - l}
	var v [2]float64
	if math.Hypot(r1[0], r1[1]) >= math.Hypot(r2[0], r2[1]) {
		v = [2]float64{-r1[1], r1[0]}
	} else {
		v = [2]float64{-r2[1], r2[0]}
	}
	n := math.Hypot(v[0], v[1])
	if n == 0 {
		return [2]float64{1, 0} // isotropic: any direction is an eigenvector
	}
	return [2]float64{v[0] / n, v[1] / n}
}
