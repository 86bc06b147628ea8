package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refLeastSquares is an independent, allocating Householder least-squares
// solver: the arithmetic LSQ.Solve must reproduce bit for bit, written
// row-major against the bounds-checked Matrix accessors with a fresh factor
// and fresh vectors on every call. Column norms take the kernel's two
// passes: the largest magnitude amax, then amax·√Σ(v/amax)².
func refLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return householderRef(a, b, func(qr *Matrix, k int) float64 {
		amax := 0.0
		for i := k; i < qr.Rows(); i++ {
			if v := math.Abs(qr.At(i, k)); v > amax {
				amax = v
			}
		}
		if amax == 0 {
			return 0
		}
		ss := 0.0
		for i := k; i < qr.Rows(); i++ {
			t := qr.At(i, k) / amax
			ss += t * t
		}
		return amax * math.Sqrt(ss)
	})
}

// hypotLeastSquares is the same Householder solver with each column norm
// accumulated as a math.Hypot chain: the kernel's arithmetic before the
// two-pass norm, kept as the accuracy reference of
// TestLSQAgreesWithHypotReference.
func hypotLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return householderRef(a, b, func(qr *Matrix, k int) float64 {
		nrm := 0.0
		for i := k; i < qr.Rows(); i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		return nrm
	})
}

// householderRef solves A·x ≈ b by Householder QR on a fresh row-major
// copy of A, with norm(qr, k) the norm of column k from the diagonal
// down.
func householderRef(a *Matrix, b []float64, norm func(qr *Matrix, k int) float64) ([]float64, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, ErrShape
	}
	if len(b) != m {
		return nil, ErrShape
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		nrm := norm(qr, k)
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Set(k, k, qr.At(k, k)+1)
			for j := k + 1; j < n; j++ {
				s := 0.0
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		rdia[k] = -nrm
	}
	tol := 1e-12 * (1 + qr.MaxAbs())
	for _, d := range rdia {
		if math.Abs(d) <= tol {
			return nil, ErrSingular
		}
	}
	y := make([]float64, m)
	copy(y, b)
	for k := 0; k < n; k++ {
		s := 0.0
		for i := k; i < m; i++ {
			s += qr.At(i, k) * y[i]
		}
		if qr.At(k, k) == 0 {
			continue
		}
		s = -s / qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * qr.At(i, k)
		}
	}
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= qr.At(k, j) * x[j]
		}
		x[k] = s / rdia[k]
	}
	return x, nil
}

// refLeastSquaresHuber is an independent, allocating copy of the Huber
// IRLS algorithm on top of refLeastSquares: the arithmetic
// LSQ.SolveHuber must reproduce bit for bit.
func refLeastSquaresHuber(a *Matrix, b []float64, tuning float64, iters int) ([]float64, error) {
	return huberRef(a, b, tuning, iters, refLeastSquares)
}

// huberRef runs the Huber IRLS algorithm with solve as the inner
// least-squares solver.
func huberRef(a *Matrix, b []float64, tuning float64, iters int, solve func(*Matrix, []float64) ([]float64, error)) ([]float64, error) {
	if tuning <= 0 {
		tuning = DefaultHuberTuning
	}
	if iters <= 0 {
		iters = defaultHuberIters
	}
	x, err := solve(a, b)
	if err != nil {
		return nil, err
	}
	m, n := a.Rows(), a.Cols()
	res := make([]float64, m)
	absRes := make([]float64, m)
	wa := NewMatrix(m, n)
	wb := make([]float64, m)
	for it := 0; it < iters; it++ {
		ax, err := a.MulVec(x)
		if err != nil {
			return nil, err
		}
		for i := range res {
			res[i] = ax[i] - b[i]
			absRes[i] = math.Abs(res[i])
		}
		srt := append([]float64(nil), absRes...)
		sort.Float64s(srt)
		med := srt[m/2]
		if m%2 == 0 {
			med = (srt[m/2-1] + srt[m/2]) / 2
		}
		sigma := 1.4826 * med
		if sigma <= 1e-10*(1+maxAbsVec(b)) {
			return x, nil
		}
		cut := tuning * sigma
		changed := false
		for i := 0; i < m; i++ {
			w := 1.0
			if r := math.Abs(res[i]); r > cut {
				w = math.Sqrt(cut / r)
				changed = true
			}
			for j := 0; j < n; j++ {
				wa.Set(i, j, w*a.At(i, j))
			}
			wb[i] = w * b[i]
		}
		if !changed {
			return x, nil
		}
		nx, err := solve(wa, wb)
		if err != nil {
			return x, nil
		}
		if vecDelta(nx, x) <= 1e-12*(1+maxAbsVec(nx)) {
			return nx, nil
		}
		x = nx
	}
	return x, nil
}

// sameSolution fails unless got and want agree in error kind and, when
// both succeed, Float64bits-equal coefficients.
func sameSolution(t *testing.T, label string, got []float64, gotErr error, want []float64, wantErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: got %v, want %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		if !errors.Is(gotErr, ErrSingular) || !errors.Is(wantErr, ErrSingular) {
			t.Fatalf("%s: unexpected error kinds: got %v, want %v", label, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: solution length %d, want %d", label, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s x[%d]: bits %016x, want %016x",
				label, k, math.Float64bits(got[k]), math.Float64bits(want[k]))
		}
	}
}

// TestLSQBitIdentical pins the workspace solver to the allocating path:
// for random overdetermined systems — including the 12×6 and 78×6 shapes
// the curvature fitter produces, rank-deficient ones, and repeated reuse
// of one workspace across shapes — Solve must return bit-for-bit the same
// solution (or the same error) as the allocating reference
// refLeastSquares.
func TestLSQBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w LSQ
	shapes := [][2]int{{3, 3}, {6, 3}, {12, 6}, {78, 6}, {80, 3}, {7, 6}}
	for trial := 0; trial < 200; trial++ {
		sh := shapes[trial%len(shapes)]
		m, n := sh[0], sh[1]
		a := NewMatrix(m, n)
		b := make([]float64, m)
		rankDeficient := trial%7 == 3
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				if rankDeficient && j == n-1 {
					v = a.At(i, 0) * 2 // duplicate column: singular
				}
				a.Set(i, j, v)
			}
			b[i] = rng.NormFloat64()
		}
		want, wantErr := refLeastSquares(a, b)
		got, gotErr := w.Solve(a, b)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d (%dx%d): error mismatch: LeastSquares=%v LSQ=%v", trial, m, n, wantErr, gotErr)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, ErrSingular) || !errors.Is(wantErr, ErrSingular) {
				t.Fatalf("trial %d: unexpected error kinds: %v vs %v", trial, wantErr, gotErr)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: solution length %d, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d (%dx%d) x[%d]: bits %016x, want %016x",
					trial, m, n, k, math.Float64bits(got[k]), math.Float64bits(want[k]))
			}
		}
	}
}

// lsqCase is one system of huberCases: a quadric design with its
// right-hand side and IRLS parameters, plus an unrelated (m+1)×n system to
// solve in between on the same workspace.
type lsqCase struct {
	label    string
	a        *Matrix
	b        []float64
	tuning   float64
	iters    int
	other    *Matrix
	otherRHS []float64
}

// huberCases returns 400 systems: quadric designs of the curvature
// fitter's 12×6 and 78×6 shapes and m×3 ones, 0–3 gross outliers, exact
// fits, singular systems and non-default tuning/iters.
func huberCases(t *testing.T) []lsqCase {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	shapes := [][2]int{{12, 6}, {78, 6}, {6, 3}, {20, 3}, {80, 3}, {7, 6}}
	params := []struct {
		tuning float64
		iters  int
	}{{0, 0}, {1, 2}, {2.5, 10}, {0.5, 1}}
	cases := make([]lsqCase, 0, 400)
	for trial := 0; trial < 400; trial++ {
		sh := shapes[trial%len(shapes)]
		m, n := sh[0], sh[1]
		a := NewMatrix(m, n)
		coef := make([]float64, n)
		for j := range coef {
			coef[j] = rng.NormFloat64()
		}
		singular := trial%9 == 4
		for i := 0; i < m; i++ {
			x, y := rng.Float64()*10-5, rng.Float64()*10-5
			row := []float64{x * x, x * y, y * y, x, y, 1}
			for j := 0; j < n; j++ {
				v := row[j]
				if singular && j == n-1 {
					v = 2 * row[0] // duplicate column: rank-deficient
				}
				a.Set(i, j, v)
			}
		}
		b, err := a.MulVec(coef)
		if err != nil {
			t.Fatal(err)
		}
		outliers := (trial / len(shapes)) % 4
		if trial%11 != 0 { // every 11th system stays an exact fit
			for i := range b {
				b[i] += 0.05 * rng.NormFloat64()
			}
			for k := 0; k < outliers; k++ {
				b[rng.Intn(m)] += (20 + 40*rng.Float64()) * float64(1-2*rng.Intn(2))
			}
		}
		p := params[(trial/3)%len(params)]
		other := NewMatrix(m+1, n)
		ob := make([]float64, m+1)
		for i := 0; i <= m; i++ {
			for j := 0; j < n; j++ {
				other.Set(i, j, rng.NormFloat64())
			}
			ob[i] = rng.NormFloat64()
		}
		cases = append(cases, lsqCase{
			label:  fmt.Sprintf("trial %d (%dx%d, %d outliers, tuning %v, iters %d)", trial, m, n, outliers, p.tuning, p.iters),
			a:      a,
			b:      b,
			tuning: p.tuning, iters: p.iters,
			other: other, otherRHS: ob,
		})
	}
	return cases
}

// TestHuberWorkspaceBitIdentical pins LSQ.SolveHuber to the allocating
// reference refLeastSquaresHuber, Float64bits-equal, over huberCases. One
// workspace serves every trial and is interleaved with plain Solve calls,
// so an IRLS iterate aliased to Solve's output buffer would show.
func TestHuberWorkspaceBitIdentical(t *testing.T) {
	var w LSQ
	reweighted := 0
	for _, c := range huberCases(t) {
		want, wantErr := refLeastSquaresHuber(c.a, c.b, c.tuning, c.iters)
		got, gotErr := w.SolveHuber(c.a, c.b, c.tuning, c.iters)
		sameSolution(t, c.label, got, gotErr, want, wantErr)
		if plain, err := refLeastSquares(c.a, c.b); err == nil && math.Float64bits(plain[0]) != math.Float64bits(want[0]) {
			reweighted++
		}
		fresh, freshErr := LeastSquaresHuber(c.a, c.b, c.tuning, c.iters)
		sameSolution(t, c.label+" fresh wrapper", fresh, freshErr, want, wantErr)

		// A plain solve of another system on the same workspace in between.
		wantPlain, wantPlainErr := refLeastSquares(c.other, c.otherRHS)
		gotPlain, gotPlainErr := w.Solve(c.other, c.otherRHS)
		sameSolution(t, c.label+" interleaved Solve", gotPlain, gotPlainErr, wantPlain, wantPlainErr)
	}
	if reweighted < 100 {
		t.Fatalf("only %d of 400 systems were reweighted; the IRLS loop is barely exercised", reweighted)
	}
}

// closeSolution fails unless got and want agree in error kind and, when
// both succeed, ‖got − want‖∞ ≤ rel·‖want‖∞.
func closeSolution(t *testing.T, label string, got []float64, gotErr error, want []float64, wantErr error, rel float64) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: got %v, want %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if d, s := vecDelta(got, want), maxAbsVec(want); d > rel*s {
		t.Fatalf("%s: ‖Δx‖∞ = %g exceeds %g·‖x‖∞ = %g\ngot  %v\nwant %v", label, d, rel, rel*s, got, want)
	}
}

// TestLSQAgreesWithHypotReference bounds what the two-pass column norm
// changed: over huberCases, the plain, interleaved and Huber solutions
// agree with the math.Hypot-norm reference within 1e-10 relative, and
// both kernels reject the same singular systems.
func TestLSQAgreesWithHypotReference(t *testing.T) {
	var w LSQ
	for _, c := range huberCases(t) {
		want, wantErr := hypotLeastSquares(c.a, c.b)
		got, gotErr := w.Solve(c.a, c.b)
		closeSolution(t, c.label, got, gotErr, want, wantErr, 1e-10)

		want, wantErr = hypotLeastSquares(c.other, c.otherRHS)
		got, gotErr = w.Solve(c.other, c.otherRHS)
		closeSolution(t, c.label+" other", got, gotErr, want, wantErr, 1e-10)

		want, wantErr = huberRef(c.a, c.b, c.tuning, c.iters, hypotLeastSquares)
		got, gotErr = w.SolveHuber(c.a, c.b, c.tuning, c.iters)
		closeSolution(t, c.label+" huber", got, gotErr, want, wantErr, 1e-10)
	}
}

// TestLSQExtremeScale covers the range the two-pass norm exists for: the
// plain sum of squares of a column overflows beyond |v| ≈ 1e154 and
// underflows below 1e-154. colNorm of a vector scaled by 1e±150 or 1e±200
// is the scaled norm, and Solve on a system whose columns are all scaled
// by 1e150 or 1e200 returns finite coefficients equal to the unscaled
// ones after rescaling. Tiny columns meet the rank test's absolute 1e-12
// floor instead, so a system scaled by 1e-150, or one with a subnormal
// column, must come back as ErrSingular rather than as NaN.
func TestLSQExtremeScale(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	v := make([]float64, 80)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	base := colNorm(v)
	for _, s := range []float64{1e150, 1e-150, 1e200, 1e-200} {
		sv := make([]float64, len(v))
		for i := range v {
			sv[i] = v[i] * s
		}
		got := colNorm(sv) / s
		if math.IsNaN(got) || math.Abs(got-base) > 1e-14*base {
			t.Fatalf("colNorm at scale %g: %v, want %v", s, got, base)
		}
	}

	var w LSQ
	for _, shape := range [][2]int{{12, 6}, {78, 6}, {20, 3}} {
		m, n := shape[0], shape[1]
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		want, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		scaled := func(s float64) *Matrix {
			as := NewMatrix(m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					as.Set(i, j, a.At(i, j)*s)
				}
			}
			return as
		}
		for _, s := range []float64{1e150, 1e200} {
			x, err := w.Solve(scaled(s), b)
			if err != nil {
				t.Fatalf("%dx%d at scale %g: %v", m, n, s, err)
			}
			requireFinite(t, fmt.Sprintf("%dx%d at scale %g", m, n, s), x)
			for j := range x {
				x[j] *= s
			}
			closeSolution(t, fmt.Sprintf("%dx%d at scale %g", m, n, s), x, nil, want, nil, 1e-12)
		}
		if _, err := w.Solve(scaled(1e-150), b); !errors.Is(err, ErrSingular) {
			t.Fatalf("%dx%d at scale 1e-150: got %v, want ErrSingular", m, n, err)
		}
		sub := a.Clone()
		for i := 0; i < m; i++ {
			sub.Set(i, n-1, a.At(i, n-1)*1e-310)
		}
		sub.Set(0, n-1, 0) // 0·(1/amax) would be NaN once 1/amax overflows
		if _, err := w.Solve(sub, b); !errors.Is(err, ErrSingular) {
			t.Fatalf("%dx%d with a subnormal column: got %v, want ErrSingular", m, n, err)
		}
	}
}

// TestLSQShapeErrors checks the workspace rejects underdetermined systems
// and mismatched right-hand sides like the allocating path does.
func TestLSQShapeErrors(t *testing.T) {
	var w LSQ
	if _, err := w.Solve(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("underdetermined: got %v, want ErrShape", err)
	}
	if _, err := w.Solve(NewMatrix(3, 2), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("bad rhs: got %v, want ErrShape", err)
	}
}

// TestLSQAllocFree asserts the steady-state contract: after the first
// solve of a given shape, further Solve and SolveHuber calls do not
// allocate — the latter on data whose outliers make IRLS reweight and
// re-solve.
func TestLSQAllocFree(t *testing.T) {
	var w LSQ
	a := NewMatrix(12, 6)
	b := make([]float64, 12)
	rng := rand.New(rand.NewSource(3))
	fill := func() {
		for i := 0; i < 12; i++ {
			for j := 0; j < 6; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		b[rng.Intn(12)] += 50 // a gross outlier for the Huber path
	}
	fill()
	if _, err := w.Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := w.SolveHuber(a, b, 0, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		fill()
		if _, err := w.Solve(a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := w.SolveHuber(a, b, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	// fill() itself allocates nothing; the solves must not either.
	if allocs != 0 {
		t.Fatalf("steady-state solves allocate %.1f objects/op, want 0", allocs)
	}
}

// TestLSQFactorSolveBitIdentical pins the split kernel: one Factor
// followed by many SolveFactored calls on fresh right-hand sides returns
// Solve's bits (or its error) for each, on the fitter's shapes and on
// rank-deficient systems, and a warmed SolveFactored allocates nothing.
func TestLSQFactorSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var fw, sw LSQ
	shapes := [][2]int{{3, 3}, {12, 6}, {21, 6}, {78, 6}, {5, 3}}
	for trial := 0; trial < 100; trial++ {
		sh := shapes[trial%len(shapes)]
		m, n := sh[0], sh[1]
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				if trial%9 == 4 && j == n-1 {
					v = a.At(i, 0) * 3 // duplicate column: singular
				}
				a.Set(i, j, v)
			}
		}
		factorErr := fw.Factor(a)
		b := make([]float64, m)
		for rhs := 0; rhs < 8; rhs++ {
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			got, gotErr := fw.SolveFactored(b)
			want, wantErr := sw.Solve(a, b)
			if !errors.Is(gotErr, wantErr) || !errors.Is(factorErr, wantErr) {
				t.Fatalf("trial %d rhs %d: errors Factor=%v SolveFactored=%v Solve=%v", trial, rhs, factorErr, gotErr, wantErr)
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("trial %d rhs %d x[%d]: bits %016x, want %016x",
						trial, rhs, k, math.Float64bits(got[k]), math.Float64bits(want[k]))
				}
			}
		}
	}
	a := NewMatrix(12, 6)
	for i := 0; i < 12; i++ {
		for j := 0; j < 6; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b := make([]float64, 12)
	if err := fw.Factor(a); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.SolveFactored(b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		b[3]++
		if _, err := fw.SolveFactored(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SolveFactored allocates %.1f objects/op, want 0", allocs)
	}
	if _, err := fw.SolveFactored(b[:11]); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: got %v, want ErrShape", err)
	}
	if err := fw.Factor(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("wide matrix: got %v, want ErrShape", err)
	}
	if _, err := fw.SolveFactored(b[:2]); !errors.Is(err, ErrShape) {
		t.Fatalf("solve after a wide Factor: got %v, want ErrShape", err)
	}
}

// TestMatrixReuse checks Reuse preserves capacity and reshapes correctly.
func TestMatrixReuse(t *testing.T) {
	m := NewMatrix(10, 6)
	data0 := &m.data[0]
	m.Reuse(4, 3)
	if m.Rows() != 4 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d, want 4x3", m.Rows(), m.Cols())
	}
	if &m.data[0] != data0 {
		t.Fatal("Reuse reallocated despite sufficient capacity")
	}
	m.Reuse(20, 6)
	if m.Rows() != 20 || m.Cols() != 6 || len(m.data) != 120 {
		t.Fatalf("grow: shape %dx%d len %d", m.Rows(), m.Cols(), len(m.data))
	}
}
