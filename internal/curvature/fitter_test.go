package curvature

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/linalg"
)

// noisyDisc builds the integer-lattice sensing disc the simulator feeds
// the fitter — the tie-heavy geometry (symmetric lattice distances) that
// stresses the nearest-m tie order.
func noisyDisc(rng *rand.Rand, center geom.Vec2, rs float64) []field.Sample {
	var out []field.Sample
	out = append(out, field.Sample{Pos: center, Z: rng.NormFloat64()})
	for ix := int(center.X - rs - 1); ix <= int(center.X+rs+1); ix++ {
		for iy := int(center.Y - rs - 1); iy <= int(center.Y+rs+1); iy++ {
			p := geom.V2(float64(ix), float64(iy))
			if p == center || p.Dist(center) > rs {
				continue
			}
			out = append(out, field.Sample{Pos: p, Z: rng.NormFloat64()})
		}
	}
	return out
}

func sameEstimate(t *testing.T, label string, got, want Estimate) {
	t.Helper()
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	if bits(got.A) != bits(want.A) || bits(got.B) != bits(want.B) || bits(got.C) != bits(want.C) ||
		bits(got.G1) != bits(want.G1) || bits(got.G2) != bits(want.G2) ||
		bits(got.Gaussian) != bits(want.Gaussian) || got.Samples != want.Samples {
		t.Fatalf("%s: estimates diverged:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// refFit is the oracle for Fitter.Fit: an allocating fit that builds a
// fresh design matrix through the bounds-checked Set, calls the
// package-level linalg solvers, each on a fresh workspace, and applies
// the flat floor (a quadratic part within 64 ulps of max|z|) on its own
// pass over the samples.
func refFit(origin geom.Vec2, samples []field.Sample, method Method) (Estimate, error) {
	if len(samples) < 3 {
		return Estimate{}, ErrTooFewSamples
	}
	n := len(samples)
	cols := 6
	if n < 6 {
		cols = 3
	}
	quadA := linalg.NewMatrix(n, cols)
	quadB := make([]float64, n)
	for i, s := range samples {
		x, y := s.Pos.X-origin.X, s.Pos.Y-origin.Y
		quadA.Set(i, 0, x*x)
		quadA.Set(i, 1, x*y)
		quadA.Set(i, 2, y*y)
		if cols == 6 {
			quadA.Set(i, 3, x)
			quadA.Set(i, 4, y)
			quadA.Set(i, 5, 1)
		}
		quadB[i] = s.Z
	}
	var coef []float64
	var err error
	var w linalg.LSQ
	switch method {
	case Normal:
		coef, err = linalg.LeastSquaresNormal(quadA, quadB)
	case Huber:
		coef, err = w.SolveHuber(quadA, quadB, 0, 0)
	default:
		coef, err = w.Solve(quadA, quadB)
	}
	if err != nil {
		return Estimate{Samples: n}, nil
	}
	a, b, c := coef[0], coef[1], coef[2]
	r2max, zmax := 0.0, 0.0
	for _, s := range samples {
		x, y := s.Pos.X-origin.X, s.Pos.Y-origin.Y
		r2max = math.Max(r2max, x*x+y*y)
		zmax = math.Max(zmax, math.Abs(s.Z))
	}
	if (math.Abs(a)+math.Abs(b)+math.Abs(c))*r2max <= 64*0x1p-52*zmax {
		a, b, c = 0, 0, 0
	}
	g1, g2 := linalg.PrincipalCurvatures(a, b, c)
	return Estimate{A: a, B: b, C: c, G1: g1, G2: g2, Gaussian: g1 * g2, Samples: n}, nil
}

// fitNearestRef is the oracle for Fitter.FitNearest: refFit over the
// first m samples (m clamped to at least 3) of a stable sort by Dist² to
// origin.
func fitNearestRef(origin geom.Vec2, samples []field.Sample, m int, method Method) (Estimate, error) {
	sorted := append([]field.Sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Pos.Dist2(origin) < sorted[j].Pos.Dist2(origin)
	})
	return refFit(origin, sorted[:min(max(m, 3), len(sorted))], method)
}

// TestFitterBitIdentical pins the fitter to the refFit oracle and to the
// nearest-m oracle: across methods, degenerate inputs, and tie-heavy
// lattice discs, every coefficient and curvature must match bit for bit —
// including FitNearest, whose selection must resolve distance ties by
// sample index exactly as the stable sort does.
func TestFitterBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, method := range []Method{QR, Normal, Huber} {
		f := NewFitter(method)
		for trial := 0; trial < 40; trial++ {
			center := geom.V2(rng.Float64()*100, rng.Float64()*100)
			samples := noisyDisc(rng, center, 5)
			got, gotErr := f.Fit(center, samples)
			want, wantErr := refFit(center, samples, method)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("method %d Fit error mismatch: %v vs %v", method, gotErr, wantErr)
			}
			sameEstimate(t, "Fit", got, want)

			// FitNearest at every origin of the inner disc — the findPeak
			// candidate loop.
			for _, s := range samples {
				if s.Pos.Dist(center) > 3.5 {
					continue
				}
				got, gotErr = f.FitNearest(s.Pos, samples, 12)
				want, wantErr = fitNearestRef(s.Pos, samples, 12, method)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("method %d FitNearest error mismatch: %v vs %v", method, gotErr, wantErr)
				}
				sameEstimate(t, "FitNearest", got, want)
			}
		}

		// Degenerate inputs: too few samples, collinear geometry.
		two := []field.Sample{{Pos: geom.V2(0, 0), Z: 1}, {Pos: geom.V2(1, 1), Z: 2}}
		if _, err := f.Fit(geom.V2(0, 0), two); err == nil {
			t.Fatalf("method %d: expected ErrTooFewSamples", method)
		}
		collinear := []field.Sample{
			{Pos: geom.V2(0, 0), Z: 1}, {Pos: geom.V2(1, 0), Z: 2},
			{Pos: geom.V2(2, 0), Z: 3}, {Pos: geom.V2(3, 0), Z: 4},
		}
		got, gotErr := f.Fit(geom.V2(0, 0), collinear)
		want, wantErr := refFit(geom.V2(0, 0), collinear, method)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("method %d collinear error mismatch: %v vs %v", method, gotErr, wantErr)
		}
		sameEstimate(t, "collinear", got, want)
	}
}

// TestFitterAllocFree asserts the steady-state contract on the QR and
// Huber paths: once warmed up, Fit, FitNearest and Peak allocate nothing.
// The disc's noisy heights make Huber reweight and re-solve; Peak also
// runs on a second disc whose off-lattice center makes it merge the own
// sample into its walks.
func TestFitterAllocFree(t *testing.T) {
	for _, method := range []Method{QR, Huber} {
		rng := rand.New(rand.NewSource(5))
		f := NewFitter(method)
		center := geom.V2(50, 50)
		samples := noisyDisc(rng, center, 5)
		samples[7].Z += 40 // a gross outlier
		offCenter := geom.V2(50.4, 49.7)
		offSamples := noisyDisc(rng, offCenter, 5)
		fits := func() {
			if _, err := f.FitNearest(center, samples, 12); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Fit(center, samples); err != nil {
				t.Fatal(err)
			}
			f.Peak(center, samples, 12, 3.5)
			f.Peak(offCenter, offSamples, 12, 3.5)
		}
		fits()
		allocs := testing.AllocsPerRun(50, fits)
		if allocs != 0 {
			t.Fatalf("method %d: steady-state fits allocate %.1f objects/op, want 0", method, allocs)
		}
	}
}

func TestFitNearestUsesOnlyMSamples(t *testing.T) {
	// Far samples come from a different surface; with m small enough the
	// fit must ignore them.
	f := field.Quadratic(geom.Square(100), 1, 0, 1)
	center := geom.V2(50, 50)
	samples := discSamples(f, center, 3)
	near := len(samples)
	// Pollute with far samples of wild value.
	for i := 0; i < 30; i++ {
		samples = append(samples, field.Sample{
			Pos: geom.V2(90+float64(i%5), 90+float64(i/5)), Z: 1e6,
		})
	}
	est, err := NewFitter(QR).FitNearest(center, samples, near)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != near {
		t.Fatalf("used %d samples, want %d", est.Samples, near)
	}
	if math.Abs(est.A-1) > 1e-6 || math.Abs(est.C-1) > 1e-6 {
		t.Errorf("polluted fit = (%v,%v,%v)", est.A, est.B, est.C)
	}
}

func TestFitNearestClampsM(t *testing.T) {
	f := field.Quadratic(geom.Square(100), 1, 0, 1)
	samples := discSamples(f, geom.V2(50, 50), 2)
	est, err := NewFitter(QR).FitNearest(geom.V2(50, 50), samples, 1)
	if err != nil {
		t.Fatalf("m<3 should clamp, got %v", err)
	}
	if est.Samples != 3 {
		t.Fatalf("m<3 fit used %d samples, want 3", est.Samples)
	}
}

// FuzzFitNearest pins Fitter.FitNearest's bounded selection to the
// stable-sort oracle, Float64bits-equal, on every backend. Clouds live on
// a small integer lattice around a half-lattice origin, so equal distances
// and duplicate positions are the norm rather than the exception; m ranges
// over 1..len+2 to cover the clamp, the partial buffer and the all-samples
// case.
func FuzzFitNearest(f *testing.F) {
	disc := make([]byte, 0, 3*81)
	for x := 0; x < 9; x++ {
		for y := 0; y < 9; y++ {
			disc = append(disc, byte(x+4), byte(y+4), byte(x*y))
		}
	}
	f.Add(disc, int8(0), int8(0), uint8(12))
	f.Add(disc, int8(3), int8(-5), uint8(40))
	f.Add([]byte{1, 1, 7, 1, 1, 9, 1, 1, 3, 2, 2, 0, 2, 2, 1, 0, 3, 5}, int8(2), int8(2), uint8(3))
	f.Add([]byte{8, 8, 1, 9, 8, 2, 8, 9, 3}, int8(0), int8(0), uint8(1))
	f.Add([]byte{}, int8(0), int8(0), uint8(0))
	fitters := []*Fitter{NewFitter(QR), NewFitter(Normal), NewFitter(Huber)}
	f.Fuzz(func(t *testing.T, cloud []byte, ox, oy int8, mRaw uint8) {
		var samples []field.Sample
		for i := 0; i+2 < len(cloud) && len(samples) < 200; i += 3 {
			samples = append(samples, field.Sample{
				Pos: geom.V2(float64(int(cloud[i]%16)-8), float64(int(cloud[i+1]%16)-8)),
				Z:   float64(int8(cloud[i+2])) / 16,
			})
		}
		origin := geom.V2(float64(ox%16)/2, float64(oy%16)/2)
		m := 1 + int(mRaw)%(len(samples)+2)
		for _, fit := range fitters {
			got, gotErr := fit.FitNearest(origin, samples, m)
			want, wantErr := fitNearestRef(origin, samples, m, fit.Method())
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("method %d m=%d: error mismatch: %v vs %v", fit.Method(), m, gotErr, wantErr)
			}
			sameEstimate(t, "FitNearest", got, want)
		}
	})
}

// TestFitFlatAtWorkingPrecision pins the flat floor: on constant fields
// (z = 5, z = 1e6) and on the plane z = 1e6 + 3x − 2y, whose fitted
// quadratic part is rounding dust, every backend reports G exactly 0 —
// through Fit and FitNearest, around on- and off-lattice origins.
func TestFitFlatAtWorkingPrecision(t *testing.T) {
	region := geom.Square(100)
	fields := []struct {
		name string
		f    field.Field
	}{
		{"z=5", field.Constant(region, 5)},
		{"z=1e6", field.Constant(region, 1e6)},
		{"z=1e6+3x-2y", field.Plane(region, 3, -2, 1e6)},
	}
	origins := []geom.Vec2{geom.V2(50, 50), geom.V2(31, 72), geom.V2(50.37, 49.81), geom.V2(12.5, 80.25)}
	for _, method := range []Method{QR, Normal, Huber} {
		f := NewFitter(method)
		for _, fc := range fields {
			for _, o := range origins {
				samples := discSamples(fc.f, o, 5)
				est, err := f.Fit(o, samples)
				if err != nil {
					t.Fatal(err)
				}
				if est.Gaussian != 0 || est.A != 0 || est.B != 0 || est.C != 0 {
					t.Errorf("method %d, %s at %v: Fit = %+v, want a flat patch", method, fc.name, o, est)
				}
				est, err = f.FitNearest(o, samples, 12)
				if err != nil {
					t.Fatal(err)
				}
				if est.Gaussian != 0 {
					t.Errorf("method %d, %s at %v: FitNearest G = %v, want 0", method, fc.name, o, est.Gaussian)
				}
			}
		}
	}
}
