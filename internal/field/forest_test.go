package field

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestForestDeterministic(t *testing.T) {
	cfg := DefaultForestConfig()
	f1 := NewForest(cfg)
	f2 := NewForest(cfg)
	for _, p := range []geom.Vec2{geom.V2(10, 10), geom.V2(50, 50), geom.V2(93, 7)} {
		for _, tm := range []float64{0, 10, 45} {
			if f1.EvalAt(p, tm) != f2.EvalAt(p, tm) {
				t.Fatalf("same seed diverged at %v t=%v", p, tm)
			}
		}
	}
}

func TestForestSeedsDiffer(t *testing.T) {
	a := DefaultForestConfig()
	b := DefaultForestConfig()
	b.Seed = 777
	fa, fb := NewForest(a), NewForest(b)
	diff := 0
	for _, p := range GridPositions(a.Region, 10) {
		if fa.EvalAt(p, 0) != fb.EvalAt(p, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical fields")
	}
}

func TestForestNonNegative(t *testing.T) {
	f := NewForest(DefaultForestConfig())
	for _, p := range GridPositions(f.Bounds(), 20) {
		for _, tm := range []float64{0, 15, 30, 45, 200} {
			if z := f.EvalAt(p, tm); z < 0 {
				t.Fatalf("negative illumination %v at %v t=%v", z, p, tm)
			}
		}
	}
}

func TestForestTimeVariation(t *testing.T) {
	f := NewForest(DefaultForestConfig())
	moved := 0
	for _, p := range GridPositions(f.Bounds(), 10) {
		if math.Abs(f.EvalAt(p, 0)-f.EvalAt(p, 30)) > 1e-6 {
			moved++
		}
	}
	if moved < 50 {
		t.Errorf("field barely changed over 30 min: %d/121 positions moved", moved)
	}
}

func TestForestHasBrightGaps(t *testing.T) {
	cfg := DefaultForestConfig()
	f := NewForest(cfg)
	s := Summarize(f.Reference(), 101)
	if s.Max < cfg.BaseKLux+cfg.GapKLux*0.5 {
		t.Errorf("max %v too dim for gap amplitude %v", s.Max, cfg.GapKLux)
	}
	if s.Min >= s.Max {
		t.Error("degenerate field")
	}
	// The field must be spatially non-trivial: max well above mean.
	if s.Max < 1.5*s.Mean {
		t.Errorf("max %v not prominent over mean %v", s.Max, s.Mean)
	}
}

func TestForestConfigSanitized(t *testing.T) {
	cfg := DefaultForestConfig()
	cfg.Gaps = 0
	cfg.GapSigma = -1
	cfg.DiurnalPeriod = 0
	f := NewForest(cfg) // must not panic or divide by zero
	if z := f.EvalAt(geom.V2(50, 50), 10); math.IsNaN(z) || math.IsInf(z, 0) {
		t.Errorf("sanitized config produced %v", z)
	}
}

func TestWrapInto(t *testing.T) {
	r := geom.Square(100)
	tests := []struct {
		name string
		p    geom.Vec2
		want geom.Vec2
	}{
		{"inside", geom.V2(50, 50), geom.V2(50, 50)},
		{"east-overflow", geom.V2(150, 50), geom.V2(50, 50)},
		{"west-underflow", geom.V2(-10, 50), geom.V2(90, 50)},
		{"both", geom.V2(250, -30), geom.V2(50, 70)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := wrapInto(r, tc.p)
			if got.Dist(tc.want) > 1e-9 {
				t.Errorf("wrapInto(%v) = %v, want %v", tc.p, got, tc.want)
			}
			if !r.Contains(got) {
				t.Errorf("result %v outside region", got)
			}
		})
	}
}

func TestForestReferenceMatchesT0(t *testing.T) {
	f := NewForest(DefaultForestConfig())
	ref := f.Reference()
	for _, p := range GridPositions(f.Bounds(), 5) {
		if ref.Eval(p) != f.EvalAt(p, 0) {
			t.Fatalf("Reference differs from t=0 at %v", p)
		}
	}
}

// TestCheckTimeBound pins CheckTime to EvalAt: every time it accepts
// evaluates to finite values, and the first time past the bound, as well
// as NaN and ±Inf, is refused.
func TestCheckTimeBound(t *testing.T) {
	f := NewForest(DefaultForestConfig())
	p := geom.V2(37, 61)
	for _, tm := range []float64{0, 45, -45, maxTime, -maxTime} {
		if err := CheckTime(tm); err != nil {
			t.Errorf("CheckTime(%v) = %v, want nil", tm, err)
		}
		if z := f.EvalAt(p, tm); math.IsNaN(z) || math.IsInf(z, 0) {
			t.Errorf("EvalAt(t=%v) = %v, want finite", tm, z)
		}
	}
	past := math.Nextafter(maxTime, math.Inf(1))
	if z := f.EvalAt(p, past); !math.IsNaN(z) {
		t.Errorf("EvalAt(t=%v) = %v, want NaN past the bound", past, z)
	}
	for _, tm := range []float64{past, -past, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if CheckTime(tm) == nil {
			t.Errorf("CheckTime(%v) = nil, want an error", tm)
		}
	}
}
