package mobile

import (
	"errors"
	"math"
	"testing"

	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
)

func sense(f field.Field, pos geom.Vec2, rs float64) []field.Sample {
	return field.NewSampler(0, 1).Disc(f, pos, rs)
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"rc", func(c *Config) { c.Rc = 0 }, false},
		{"rs", func(c *Config) { c.Rs = -1 }, false},
		{"maxstep", func(c *Config) { c.MaxStep = 0 }, false},
		{"beta-negative", func(c *Config) { c.Beta = -1 }, false},
		{"beta-zero-ok", func(c *Config) { c.Beta = 0 }, true},
		{"region", func(c *Config) { c.Region = geom.Rect{} }, false},
		{"rc-nan", func(c *Config) { c.Rc = math.NaN() }, false},
		{"rc-inf", func(c *Config) { c.Rc = math.Inf(1) }, false},
		{"rc-neg-inf", func(c *Config) { c.Rc = math.Inf(-1) }, false},
		{"rs-nan", func(c *Config) { c.Rs = math.NaN() }, false},
		{"rs-inf", func(c *Config) { c.Rs = math.Inf(1) }, false},
		{"rs-neg-inf", func(c *Config) { c.Rs = math.Inf(-1) }, false},
		{"maxstep-nan", func(c *Config) { c.MaxStep = math.NaN() }, false},
		{"maxstep-inf", func(c *Config) { c.MaxStep = math.Inf(1) }, false},
		{"maxstep-neg-inf", func(c *Config) { c.MaxStep = math.Inf(-1) }, false},
		{"beta-nan", func(c *Config) { c.Beta = math.NaN() }, false},
		{"beta-inf", func(c *Config) { c.Beta = math.Inf(1) }, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadConfig) {
				t.Errorf("want ErrBadConfig, got %v", err)
			}
		})
	}
}

func TestNewControllerRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rc = 0
	if _, err := NewController(1, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig, got %v", err)
	}
}

func TestControllerAccessors(t *testing.T) {
	c, err := NewController(7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != 7 {
		t.Errorf("ID = %d", c.ID())
	}
	if c.Config().Rc != 10 {
		t.Errorf("Config.Rc = %v", c.Config().Rc)
	}
	// Zero-valued knobs take the documented defaults, which DefaultConfig
	// must agree with.
	z, err := NewController(0, Config{Region: geom.Square(100), Rc: 10, Rs: 5, MaxStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	zc, dc := z.Config(), c.Config()
	for _, row := range []struct {
		name            string
		zero, def, want float64
	}{
		{"StopEps", zc.StopEps, dc.StopEps, 0.8},
		{"CurvGain", zc.CurvGain, dc.CurvGain, 0.15},
		{"RepulseFrac", zc.RepulseFrac, dc.RepulseFrac, 1},
	} {
		if row.zero != row.want || row.def != row.want {
			t.Errorf("%s: zero value fills %v, DefaultConfig gives %v, want %v", row.name, row.zero, row.def, row.want)
		}
	}
}

func TestPlanFlatFieldNoNeighborsStops(t *testing.T) {
	// On a constant field with no neighbors, every force vanishes.
	f := field.Constant(geom.Square(100), 5)
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(50, 50)
	d, err := round(c, pos, sense(f, pos, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Move {
		t.Errorf("flat field caused movement: Fs=%v", d.Fs)
	}
	if d.G != 0 {
		t.Errorf("flat field curvature = %v", d.G)
	}
	if d.Target != pos {
		t.Errorf("stationary target = %v", d.Target)
	}
}

func TestPlanRepulsionPushesApart(t *testing.T) {
	// Two close nodes on a flat field: pure repulsion (Eqn 17) must push
	// them directly apart.
	f := field.Constant(geom.Square(100), 5)
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(50, 50)
	nb := []NeighborInfo{{ID: 1, Pos: geom.V2(53, 50), G: 0}}
	d, err := round(c, pos, sense(f, pos, 5), nb)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Move {
		t.Fatal("close neighbor should trigger movement")
	}
	if d.Fs.X >= 0 {
		t.Errorf("Fs = %v, want -X (away from neighbor at +X)", d.Fs)
	}
	if math.Abs(d.Fs.Y) > 1e-9 {
		t.Errorf("Fs.Y = %v, want 0 by symmetry", d.Fs.Y)
	}
	// |Fr| = (Rc − d) = 7, scaled by β = 2 in Fs.
	if math.Abs(d.Fr.Len()-7) > 1e-9 {
		t.Errorf("|Fr| = %v, want 7", d.Fr.Len())
	}
	if math.Abs(d.Fs.Len()-14) > 1e-9 {
		t.Errorf("|Fs| = %v, want 14 (β·|Fr|)", d.Fs.Len())
	}
}

func TestPlanNeighborOutOfRangeNoRepulsion(t *testing.T) {
	f := field.Constant(geom.Square(100), 5)
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(50, 50)
	nb := []NeighborInfo{{ID: 1, Pos: geom.V2(65, 50), G: 0}} // d = 15 > Rc
	d, err := round(c, pos, sense(f, pos, 5), nb)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fr.Len() != 0 {
		t.Errorf("out-of-range neighbor produced repulsion %v", d.Fr)
	}
}

func TestPlanAttractionTowardCurvedNeighbor(t *testing.T) {
	// A neighbor at comfortable distance reporting high curvature attracts
	// (Eqn 15) once repulsion is out of the picture.
	f := field.Constant(geom.Square(100), 5)
	cfg := DefaultConfig()
	cfg.Beta = 0     // isolate F2
	cfg.CurvGain = 1 // full-strength attraction
	cfg.StopEps = 0.05
	c, err := NewController(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(50, 50)
	nb := []NeighborInfo{{ID: 1, Pos: geom.V2(58, 50), G: 3}}
	d, err := round(c, pos, sense(f, pos, 5), nb)
	if err != nil {
		t.Fatal(err)
	}
	if d.F2.X <= 0 {
		t.Errorf("F2 = %v, want +X toward curved neighbor", d.F2)
	}
	if !d.Move {
		t.Error("curved neighbor should attract")
	}
}

func TestPlanF1PullsTowardBump(t *testing.T) {
	// Node sits beside a sharp Gaussian bump: the peak-curvature position
	// pc lies bump-ward, so F1 points toward it (Eqn 14).
	bump := &field.Mixture{
		Region: geom.Square(100),
		Blobs:  []field.Blob{{Center: geom.V2(54, 50), Amp: 10, SigmaX: 2, SigmaY: 2}},
	}
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(50, 50)
	d, err := round(c, pos, sense(bump, pos, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Peak.X <= pos.X {
		t.Errorf("peak = %v, want X > 50 toward the bump", d.Peak)
	}
	if d.F1.X <= 0 {
		t.Errorf("F1 = %v, want +X toward the bump", d.F1)
	}
}

func TestPlanCoincidentNodesSeparate(t *testing.T) {
	f := field.Constant(geom.Square(100), 5)
	pos := geom.V2(50, 50)
	var dirs []geom.Vec2
	for id := 0; id < 2; id++ {
		c, err := NewController(id, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := round(c, pos, sense(f, pos, 5), []NeighborInfo{{ID: 1 - id, Pos: pos, G: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Move {
			t.Fatal("coincident nodes must separate")
		}
		dirs = append(dirs, d.Fs.Normalize())
	}
	if dirs[0].Sub(dirs[1]).Len() < 1e-9 {
		t.Error("coincident nodes chose identical escape directions")
	}
}

func TestPlanTooFewSamplesIsBlind(t *testing.T) {
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := round(c, geom.V2(50, 50), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Move || d.G != 0 {
		t.Errorf("blind node acted: %+v", d)
	}
}

func TestStepVelocityLimit(t *testing.T) {
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(50, 50)
	d := Decision{Move: true, Target: geom.V2(60, 50), Fs: geom.V2(50, 0)}
	next := c.Step(pos, d)
	if math.Abs(next.Dist(pos)-1) > 1e-9 { // MaxStep = 1 caps the big force
		t.Errorf("step length = %v, want 1", next.Dist(pos))
	}
	// Small force: the step is the force in excess of the StopEps
	// deadband (damped approach to balance).
	eps := c.Config().StopEps
	d.Fs = geom.V2(eps+0.25, 0)
	next = c.Step(pos, d)
	if math.Abs(next.Dist(pos)-0.25) > 1e-9 {
		t.Errorf("damped step length = %v, want 0.25", next.Dist(pos))
	}
	// Force inside the deadband: no movement.
	d.Fs = geom.V2(eps/2, 0)
	if got := c.Step(pos, d); got != pos {
		t.Errorf("deadband force moved node to %v", got)
	}
	// Non-moving decision stays put.
	if got := c.Step(pos, Decision{Move: false, Target: geom.V2(60, 50)}); got != pos {
		t.Errorf("stationary decision moved to %v", got)
	}
}

func TestStepStaysInRegion(t *testing.T) {
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(0.2, 0.2)
	d := Decision{Move: true, Target: geom.V2(0, 0), Fs: geom.V2(-50, -50)}
	next := c.Step(pos, d)
	if !c.Config().Region.Contains(next) {
		t.Errorf("step left region: %v", next)
	}
}

func TestPlanTargetAtRsDistance(t *testing.T) {
	// Table 2 line 16: nd is Rs away along Fs (when not clipped by the
	// region border).
	f := field.Constant(geom.Square(100), 5)
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V2(50, 50)
	nb := []NeighborInfo{{ID: 1, Pos: geom.V2(52, 50), G: 0}}
	d, err := round(c, pos, sense(f, pos, 5), nb)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Move {
		t.Fatal("expected movement")
	}
	if math.Abs(d.Target.Dist(pos)-5) > 1e-9 {
		t.Errorf("target distance = %v, want Rs=5", d.Target.Dist(pos))
	}
}

func TestWeightNormalization(t *testing.T) {
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.weight(1); got != 0 {
		t.Errorf("weight before observations = %v, want 0", got)
	}
	c.observeG(-4)
	if got := c.weight(2); got != 0.5 {
		t.Errorf("weight = %v, want 0.5", got)
	}
	if got := c.weight(-4); got != 1 {
		t.Errorf("weight = %v, want 1", got)
	}
	c.observeG(8)
	if got := c.weight(4); got != 0.5 {
		t.Errorf("after larger obs weight = %v, want 0.5", got)
	}
}

func TestPlanFewSamplesHoldsPosition(t *testing.T) {
	// Regression (fault injection, DESIGN.md §7): with fewer than six
	// sensed samples — e.g. after fault-injected dropouts — the node must
	// hold position rather than steer on an ill-conditioned 3-term fit or
	// emit NaN forces, even when neighbor forces would otherwise move it.
	f := field.Constant(geom.Square(100), 5)
	pos := geom.V2(50, 50)
	full := sense(f, pos, 5)
	nb := []NeighborInfo{{ID: 1, Pos: geom.V2(53, 50), G: 2}}
	for m := 0; m < 6; m++ {
		c, err := NewController(0, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := round(c, pos, full[:m], nb)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if d.Move {
			t.Errorf("m=%d: degraded node moved (Fs=%v)", m, d.Fs)
		}
		if d.Target != pos {
			t.Errorf("m=%d: target = %v, want hold at %v", m, d.Target, pos)
		}
		if d.G != 0 {
			t.Errorf("m=%d: broadcast G = %v, want 0", m, d.G)
		}
		if !d.Fs.IsFinite() || !d.F1.IsFinite() || !d.F2.IsFinite() || !d.Fr.IsFinite() {
			t.Errorf("m=%d: non-finite forces %+v", m, d)
		}
	}
	// Six samples is enough to act again: the close neighbor repels.
	c, err := NewController(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := round(c, pos, full[:6], nb)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Move {
		t.Error("m=6: node with enough samples should act on the close neighbor")
	}
}

func TestPlanStaleNeighborForcesDecay(t *testing.T) {
	// A stale neighbor report contributes exponentially decayed repulsion;
	// a fresh one (Age 0) contributes exactly the classic force.
	f := field.Constant(geom.Square(100), 5)
	pos := geom.V2(50, 50)
	forceAt := func(age int) geom.Vec2 {
		c, err := NewController(0, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := round(c, pos, sense(f, pos, 5), []NeighborInfo{{ID: 1, Pos: geom.V2(53, 50), Age: age}})
		if err != nil {
			t.Fatal(err)
		}
		return d.Fr
	}
	fresh, one, two := forceAt(0), forceAt(1), forceAt(2)
	if math.Abs(fresh.Len()-7) > 1e-9 {
		t.Errorf("fresh |Fr| = %v, want 7 (unchanged classic repulsion)", fresh.Len())
	}
	if math.Abs(one.Len()-3.5) > 1e-9 { // staleDecay = 0.5
		t.Errorf("age-1 |Fr| = %v, want 3.5", one.Len())
	}
	if math.Abs(two.Len()-1.75) > 1e-9 {
		t.Errorf("age-2 |Fr| = %v, want 1.75", two.Len())
	}
}

func TestPlanRobustFitSurvivesOutliers(t *testing.T) {
	// Sensing outliers on a flat field: the QR-fit node hallucinates
	// curvature, the RobustFit node must not broadcast a gross estimate.
	f := field.Constant(geom.Square(100), 5)
	pos := geom.V2(50, 50)
	corrupt := sense(f, pos, 5)
	corrupt[7].Z += 80
	corrupt[31].Z -= 120

	cfg := DefaultConfig()
	cfg.RobustFit = true
	robust, err := NewController(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewController(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dr, err := round(robust, pos, corrupt, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := round(plain, pos, corrupt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dr.G) >= math.Abs(dp.G) {
		t.Errorf("robust |G| = %v not below QR |G| = %v under outliers", math.Abs(dr.G), math.Abs(dp.G))
	}
	if math.Abs(dr.G) > 1e-3 {
		t.Errorf("robust G = %v on a flat field with outliers, want ≈0", dr.G)
	}
}

// round runs one CMA slot on c the way the engine does: Estimate from the
// sensed samples with fresh fit scratch, then Plan against the neighbor
// reports.
func round(c *Controller, pos geom.Vec2, samples []field.Sample, neighbors []NeighborInfo) (Decision, error) {
	if _, err := c.Estimate(curvature.NewFitter(c.Config().FitMethod()), pos, samples); err != nil {
		return Decision{}, err
	}
	return c.Plan(pos, neighbors)
}
