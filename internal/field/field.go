// Package field models physical environments as scalar fields over the
// region plane: z = f(x, y) for the static (OSD) setting and
// z = f(x, y, t) for the time-varying (OSTD) setting of the paper.
//
// It provides the analytic Matlab peaks surface used by the paper's Fig. 3,
// Gaussian-mixture fields, and a synthetic stand-in for the GreenOrbs
// forest-light trace (see DESIGN.md §3 for the substitution rationale),
// plus samplers with measurement noise and CSV trace persistence.
package field

import (
	"math"

	"repro/internal/geom"
)

// Field is a static scalar environment, the z = f(x, y) of paper
// Section 3.1. Implementations must be safe for concurrent use.
type Field interface {
	// Eval returns the environment value at position p.
	Eval(p geom.Vec2) float64
	// Bounds returns the region of interest A over which the field is
	// defined.
	Bounds() geom.Rect
}

// DynField is a time-varying scalar environment, z = f(x, y, t) of the
// OSTD problem. Time is measured in minutes from the start of the
// scenario, matching the paper's per-minute mobile-node dynamics.
type DynField interface {
	// EvalAt returns the environment value at position p and time t
	// (minutes).
	EvalAt(p geom.Vec2, t float64) float64
	// Bounds returns the region of interest A.
	Bounds() geom.Rect
}

// Func adapts a plain function to the Field interface.
type Func struct {
	// F is the field function.
	F func(p geom.Vec2) float64
	// Region is the field's domain.
	Region geom.Rect
}

// Eval implements Field.
func (f Func) Eval(p geom.Vec2) float64 { return f.F(p) }

// Bounds implements Field.
func (f Func) Bounds() geom.Rect { return f.Region }

// DynFunc adapts a plain function to the DynField interface.
type DynFunc struct {
	// F is the time-varying field function.
	F func(p geom.Vec2, t float64) float64
	// Region is the field's domain.
	Region geom.Rect
}

// EvalAt implements DynField.
func (f DynFunc) EvalAt(p geom.Vec2, t float64) float64 { return f.F(p, t) }

// Bounds implements DynField.
func (f DynFunc) Bounds() geom.Rect { return f.Region }

// Slice freezes a DynField at time t, yielding a static Field.
func Slice(d DynField, t float64) Field {
	return Func{
		F:      func(p geom.Vec2) float64 { return d.EvalAt(p, t) },
		Region: d.Bounds(),
	}
}

// Static lifts a Field into a DynField that ignores time.
func Static(f Field) DynField {
	return DynFunc{
		F:      func(p geom.Vec2, _ float64) float64 { return f.Eval(p) },
		Region: f.Bounds(),
	}
}

// Constant returns a field with the same value everywhere — useful as a
// degenerate baseline and in tests.
func Constant(region geom.Rect, value float64) Field {
	return Func{F: func(geom.Vec2) float64 { return value }, Region: region}
}

// Plane returns the affine field z = a·x + b·y + c. Delaunay interpolation
// reproduces planes exactly, which several invariants rely on.
func Plane(region geom.Rect, a, b, c float64) Field {
	return Func{
		F:      func(p geom.Vec2) float64 { return a*p.X + b*p.Y + c },
		Region: region,
	}
}

// Quadratic returns the field z = a·x² + b·x·y + c·y² centered at the
// region midpoint — the exact model class of the curvature fit (Eqn 11).
func Quadratic(region geom.Rect, a, b, c float64) Field {
	ctr := region.Center()
	return Func{
		F: func(p geom.Vec2) float64 {
			x, y := p.X-ctr.X, p.Y-ctr.Y
			return a*x*x + b*x*y + c*y*y
		},
		Region: region,
	}
}

// Peaks returns the Matlab peaks surface mapped onto the given square
// region, as used for the paper's Fig. 3 (Peaks(100)). The canonical
// formula operates on [-3, 3]²:
//
//	z = 3(1−x)²·e^(−x²−(y+1)²) − 10(x/5−x³−y⁵)·e^(−x²−y²) − ⅓·e^(−(x+1)²−y²)
func Peaks(region geom.Rect) Field {
	return Func{
		F: func(p geom.Vec2) float64 {
			// Map region coordinates onto the canonical [-3, 3]² domain.
			x := -3 + 6*(p.X-region.Min.X)/region.Width()
			y := -3 + 6*(p.Y-region.Min.Y)/region.Height()
			return peaksXY(x, y)
		},
		Region: region,
	}
}

func peaksXY(x, y float64) float64 {
	t1 := 3 * (1 - x) * (1 - x) * math.Exp(-x*x-(y+1)*(y+1))
	t2 := -10 * (x/5 - x*x*x - math.Pow(y, 5)) * math.Exp(-x*x-y*y)
	t3 := -math.Exp(-(x+1)*(x+1)-y*y) / 3
	return t1 + t2 + t3
}

// Blob is one anisotropic Gaussian bump of a mixture field.
type Blob struct {
	// Center is the bump location.
	Center geom.Vec2
	// Amp is the peak amplitude (may be negative for dips).
	Amp float64
	// SigmaX and SigmaY are the axis-aligned spreads.
	SigmaX, SigmaY float64
}

// Eval returns the blob's contribution at p.
func (b Blob) Eval(p geom.Vec2) float64 {
	dx := (p.X - b.Center.X) / b.SigmaX
	dy := (p.Y - b.Center.Y) / b.SigmaY
	return b.Amp * math.Exp(-(dx*dx+dy*dy)/2)
}

// Mixture is a base level plus a sum of Gaussian blobs. It is the building
// block of the synthetic forest-light generator.
type Mixture struct {
	// Region is the field's domain.
	Region geom.Rect
	// Base is the constant background level.
	Base float64
	// Blobs are the Gaussian components.
	Blobs []Blob
}

// Eval implements Field.
func (m *Mixture) Eval(p geom.Vec2) float64 {
	z := m.Base
	for _, b := range m.Blobs {
		z += b.Eval(p)
	}
	return z
}

// Bounds implements Field.
func (m *Mixture) Bounds() geom.Rect { return m.Region }
