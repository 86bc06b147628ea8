package curvature

import (
	"errors"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
)

// discSamples samples f on the integer lattice within rs of center.
func discSamples(f field.Field, center geom.Vec2, rs float64) []field.Sample {
	return field.NewSampler(0, 1).Disc(f, center, rs)
}

func TestFitTooFewSamples(t *testing.T) {
	_, err := Fit(geom.V2(0, 0), []field.Sample{
		{Pos: geom.V2(0, 0), Z: 1},
		{Pos: geom.V2(1, 0), Z: 2},
	}, QR)
	if !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("want ErrTooFewSamples, got %v", err)
	}
}

func TestFitRecoversExactQuadratic(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c float64
	}{
		{"bowl", 0.5, 0, 0.5},
		{"saddle", 1, 0, -1},
		{"mixed", 0.25, -0.5, 0.75},
		{"cylinder", 1, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f := field.Quadratic(geom.Square(100), tc.a, tc.b, tc.c)
			center := geom.V2(50, 50) // quadratic's center
			est, err := Fit(center, discSamples(f, center, 5), QR)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est.A-tc.a) > 1e-8 || math.Abs(est.B-tc.b) > 1e-8 || math.Abs(est.C-tc.c) > 1e-8 {
				t.Errorf("coef = (%v,%v,%v), want (%v,%v,%v)",
					est.A, est.B, est.C, tc.a, tc.b, tc.c)
			}
			wantG := (tc.a + tc.c - math.Sqrt((tc.a-tc.c)*(tc.a-tc.c)+tc.b*tc.b)) *
				(tc.a + tc.c + math.Sqrt((tc.a-tc.c)*(tc.a-tc.c)+tc.b*tc.b))
			if math.Abs(est.Gaussian-wantG) > 1e-7 {
				t.Errorf("G = %v, want %v", est.Gaussian, wantG)
			}
		})
	}
}

func TestFitPlaneHasZeroCurvature(t *testing.T) {
	// A tilted plane must report zero curvature: slope is not curvature.
	f := field.Plane(geom.Square(100), 3, -2, 10)
	est, err := Fit(geom.V2(50, 50), discSamples(f, geom.V2(50, 50), 5), QR)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Gaussian) > 1e-10 {
		t.Errorf("plane Gaussian = %v, want 0", est.Gaussian)
	}
	if math.Abs(est.G1) > 1e-6 || math.Abs(est.G2) > 1e-6 {
		t.Errorf("plane principal curvatures = (%v,%v)", est.G1, est.G2)
	}
}

func TestFitOffsetQuadraticWithPlaneRemoval(t *testing.T) {
	// Fitting away from the quadratic's apex: the local slope is nonzero
	// there, so plane removal is what keeps the curvature estimate right.
	f := field.Quadratic(geom.Square(100), 0.5, 0, 0.5)
	est, err := Fit(geom.V2(60, 55), discSamples(f, geom.V2(60, 55), 5), QR)
	if err != nil {
		t.Fatal(err)
	}
	// True quadratic has constant Hessian → a = c = 0.5 everywhere.
	if math.Abs(est.A-0.5) > 1e-7 || math.Abs(est.C-0.5) > 1e-7 {
		t.Errorf("off-apex coef = (%v,%v,%v)", est.A, est.B, est.C)
	}
}

func TestFitCollinearSamplesGracefullyFlat(t *testing.T) {
	var samples []field.Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, field.Sample{Pos: geom.V2(float64(i), 0), Z: float64(i * i)})
	}
	est, err := Fit(geom.V2(0, 0), samples, QR)
	if err != nil {
		t.Fatalf("collinear fit should not error: %v", err)
	}
	if est.Gaussian != 0 {
		t.Errorf("degenerate fit Gaussian = %v, want 0", est.Gaussian)
	}
}

func TestFitNormalAgreesWithQR(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	for _, c := range []geom.Vec2{geom.V2(50, 76), geom.V2(30, 30), geom.V2(70, 40)} {
		s := discSamples(f, c, 5)
		eq, err1 := Fit(c, s, QR)
		en, err2 := Fit(c, s, Normal)
		if err1 != nil || err2 != nil {
			t.Fatalf("fit errors: %v, %v", err1, err2)
		}
		if math.Abs(eq.Gaussian-en.Gaussian) > 1e-6*(1+math.Abs(eq.Gaussian)) {
			t.Errorf("at %v: QR G=%v vs Normal G=%v", c, eq.Gaussian, en.Gaussian)
		}
	}
}

func TestAbsGaussian(t *testing.T) {
	e := Estimate{Gaussian: -4}
	if e.AbsGaussian() != 4 {
		t.Errorf("AbsGaussian = %v", e.AbsGaussian())
	}
}

func TestMapPeaksHighCurvatureAtFeatures(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	m, err := Map(f, 20, 5, QR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bounds() != geom.Square(100) {
		t.Errorf("Bounds = %v", m.Bounds())
	}
	// Curvature at the main peak (≈(50,76)) must dominate the flat corner.
	peak := m.Eval(geom.V2(50, 75))
	corner := m.Eval(geom.V2(2, 2))
	if peak <= corner {
		t.Errorf("peak curvature %v not above corner %v", peak, corner)
	}
	pos, val := m.Max()
	if val <= 0 {
		t.Errorf("max curvature = %v", val)
	}
	if !m.Bounds().Contains(pos) {
		t.Errorf("max position %v outside region", pos)
	}
	if m.Total() <= 0 {
		t.Errorf("Total = %v", m.Total())
	}
}

func TestMapConstantFieldZero(t *testing.T) {
	m, err := Map(field.Constant(geom.Square(50), 3), 10, 5, QR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() > 1e-9 {
		t.Errorf("constant field total curvature = %v", m.Total())
	}
}

func TestMapInvalidRadius(t *testing.T) {
	if _, err := Map(field.Constant(geom.Square(10), 0), 5, 0, QR); err == nil {
		t.Error("want error for rs=0")
	}
}

func TestGridMapEvalClamps(t *testing.T) {
	m, err := Map(field.Constant(geom.Square(10), 1), 4, 2, QR)
	if err != nil {
		t.Fatal(err)
	}
	// Outside queries clamp to border cells rather than panicking.
	_ = m.Eval(geom.V2(-5, -5))
	_ = m.Eval(geom.V2(50, 50))
}

func TestFitHuberResistsOutlierSamples(t *testing.T) {
	// A clean bowl with two grossly corrupted samples (stuck sensor / radio
	// spike): the QR fit's curvature is dragged far off, the Huber fit must
	// stay close to the true value — the degraded-sensing mode of
	// DESIGN.md §7.
	f := field.Quadratic(geom.Square(100), 0.5, 0, 0.5)
	center := geom.V2(50, 50)
	samples := discSamples(f, center, 5)
	samples[3].Z += 500
	samples[len(samples)-4].Z -= 300

	clean, err := Fit(center, discSamples(f, center, 5), QR)
	if err != nil {
		t.Fatal(err)
	}
	dirtyQR, err := Fit(center, samples, QR)
	if err != nil {
		t.Fatal(err)
	}
	dirtyHuber, err := Fit(center, samples, Huber)
	if err != nil {
		t.Fatal(err)
	}
	errQR := math.Abs(dirtyQR.Gaussian - clean.Gaussian)
	errHuber := math.Abs(dirtyHuber.Gaussian - clean.Gaussian)
	if errHuber > 0.1*math.Abs(clean.Gaussian) {
		t.Errorf("huber G = %v, want within 10%% of clean %v", dirtyHuber.Gaussian, clean.Gaussian)
	}
	if errHuber >= errQR {
		t.Errorf("huber error %v not below QR error %v under outliers", errHuber, errQR)
	}
}

func TestFitHuberMatchesQROnCleanSamples(t *testing.T) {
	f := field.Quadratic(geom.Square(100), 0.25, -0.5, 0.75)
	center := geom.V2(50, 50)
	qr, err := Fit(center, discSamples(f, center, 5), QR)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := Fit(center, discSamples(f, center, 5), Huber)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qr.Gaussian-hub.Gaussian) > 1e-8 {
		t.Errorf("clean data: huber G %v deviates from QR G %v", hub.Gaussian, qr.Gaussian)
	}
}
