package field

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// ForestConfig parameterizes the synthetic GreenOrbs-style forest-light
// field. The defaults (see DefaultForestConfig) are tuned so that the
// static slice at t = 0 resembles the paper's Fig. 1 reference surface:
// a smooth under-canopy base illumination with a handful of sharp sun
// flecks (canopy gaps) — exactly the smooth-plus-sparse-bumps structure
// that drives both local-error refinement and curvature-weighted movement.
type ForestConfig struct {
	// Region is the region of interest A.
	Region geom.Rect
	// Seed makes the generated canopy deterministic.
	Seed int64
	// Gaps is the number of canopy gaps (sun-fleck bumps).
	Gaps int
	// BaseKLux is the mean under-canopy illumination in KLux.
	BaseKLux float64
	// GapKLux is the typical additional illumination at a gap center.
	GapKLux float64
	// GapSigma is the typical spatial extent of a gap in meters.
	GapSigma float64
	// UndulationAmp is the amplitude of the smooth base undulation.
	UndulationAmp float64
	// DriftSpeed is how fast sun flecks migrate across the floor as the
	// sun moves, in meters per minute (the time-varying component).
	DriftSpeed float64
	// DiurnalPeriod is the period of the global brightness modulation in
	// minutes (a full day is 1440).
	DiurnalPeriod float64
}

// DefaultForestConfig returns the configuration used throughout the
// reproduction: a 100×100 m² region with 12 canopy gaps, matching the
// scale of the paper's GreenOrbs evaluation slice.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		Region:        geom.Square(100),
		Seed:          2009, // Nov 24, 2009 — the paper's trace date
		Gaps:          12,
		BaseKLux:      2.0,
		GapKLux:       9.0,
		GapSigma:      7.0,
		UndulationAmp: 0.8,
		DriftSpeed:    0.25,
		DiurnalPeriod: 1440,
	}
}

// Forest is a deterministic synthetic forest-light field implementing
// DynField. The static reference surface (Fig. 1) is the slice at t = 0;
// the OSTD experiments advance t in minutes.
type Forest struct {
	cfg    ForestConfig
	blobs  []Blob
	drift  []geom.Vec2 // per-gap drift direction (unit vectors)
	phaseX float64
	phaseY float64
}

// NewForest builds the canopy layout from the configuration's seed.
func NewForest(cfg ForestConfig) *Forest {
	if cfg.Gaps <= 0 {
		cfg.Gaps = 1
	}
	if cfg.GapSigma <= 0 {
		cfg.GapSigma = 1
	}
	if cfg.DiurnalPeriod <= 0 {
		cfg.DiurnalPeriod = 1440
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{
		cfg:    cfg,
		phaseX: rng.Float64() * 2 * math.Pi,
		phaseY: rng.Float64() * 2 * math.Pi,
	}
	r := cfg.Region
	margin := cfg.GapSigma // keep gap centers away from the exact border
	for i := 0; i < cfg.Gaps; i++ {
		c := geom.V2(
			r.Min.X+margin+rng.Float64()*(r.Width()-2*margin),
			r.Min.Y+margin+rng.Float64()*(r.Height()-2*margin),
		)
		amp := cfg.GapKLux * (0.5 + rng.Float64()) // 0.5x .. 1.5x
		sx := cfg.GapSigma * (0.6 + 0.8*rng.Float64())
		sy := cfg.GapSigma * (0.6 + 0.8*rng.Float64())
		f.blobs = append(f.blobs, Blob{Center: c, Amp: amp, SigmaX: sx, SigmaY: sy})
		ang := rng.Float64() * 2 * math.Pi
		f.drift = append(f.drift, geom.V2(math.Cos(ang), math.Sin(ang)))
	}
	return f
}

// Bounds implements DynField.
func (f *Forest) Bounds() geom.Rect { return f.cfg.Region }

// EvalAt implements DynField. Illumination never goes below zero.
func (f *Forest) EvalAt(p geom.Vec2, t float64) float64 {
	cfg := f.cfg
	// Diurnal brightness modulation of the whole scene.
	diurnal := 1 + 0.3*math.Sin(2*math.Pi*t/cfg.DiurnalPeriod)
	// Smooth base undulation (terrain shading, canopy density waves).
	w := cfg.Region.Width()
	h := cfg.Region.Height()
	und := cfg.UndulationAmp *
		(math.Sin(2*math.Pi*(p.X-cfg.Region.Min.X)/w+f.phaseX) +
			math.Cos(2*math.Pi*(p.Y-cfg.Region.Min.Y)/h+f.phaseY)) / 2
	z := cfg.BaseKLux + und
	// Sun flecks drift with time as the sun angle changes.
	for i, b := range f.blobs {
		d := f.drift[i].Scale(cfg.DriftSpeed * t)
		moved := b
		moved.Center = wrapInto(cfg.Region, b.Center.Add(d))
		z += moved.Eval(p)
	}
	z *= diurnal
	if z < 0 {
		z = 0
	}
	return z
}

// maxTime is the largest |t| in minutes whose diurnal phase 2π·t in
// EvalAt is finite; the next float64 up overflows it to ±Inf and every
// value of the slice to NaN.
const maxTime = math.MaxFloat64 / (2 * math.Pi)

// CheckTime refuses a time at which EvalAt is not finite: NaN, ±Inf and
// any |t| beyond MaxFloat64/2π minutes.
func CheckTime(t float64) error {
	if !(math.Abs(t) <= maxTime) {
		return fmt.Errorf("field: time %v is not finite or beyond ±%g minutes", t, maxTime)
	}
	return nil
}

// Reference returns the static slice at t = 0 — the reproduction's
// stand-in for the paper's Fig. 1 referential surface.
func (f *Forest) Reference() Field { return Slice(f, 0) }

// wrapInto translates p back into r torus-style so drifting gaps re-enter
// from the opposite side instead of leaving the region dark.
func wrapInto(r geom.Rect, p geom.Vec2) geom.Vec2 {
	w, h := r.Width(), r.Height()
	x := math.Mod(p.X-r.Min.X, w)
	if x < 0 {
		x += w
	}
	y := math.Mod(p.Y-r.Min.Y, h)
	if y < 0 {
		y += h
	}
	return geom.V2(r.Min.X+x, r.Min.Y+y)
}
