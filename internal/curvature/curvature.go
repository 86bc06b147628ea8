// Package curvature estimates the Gaussian curvature of the environment's
// virtual surface from local samples, exactly as a CPS node does in the
// paper (Section 5.2): fit the quadratic patch z = a·x² + b·x·y + c·y² to
// the m samples in sensing range by least squares (Eqn 11), derive the
// principal curvatures g1,2 = a + c ∓ √((a−c)² + b²) (Eqns 12–13), and
// return G = g1·g2.
package curvature

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/geom"
)

// ErrTooFewSamples is returned when fewer than three samples are
// available — the quadratic has three unknowns.
var ErrTooFewSamples = errors.New("curvature: need at least 3 samples")

// Method selects the least-squares backend.
type Method int

// Least-squares backends. QR is the default and the numerically robust
// choice; Normal solves the normal equations and exists as the ablation
// comparator (DESIGN.md §5). Huber fits with Huber-weighted IRLS so a few
// outlier samples (sensing faults, radio spikes) cannot hijack the
// curvature estimate — the degraded-mode backend of DESIGN.md §7.
const (
	QR Method = iota
	Normal
	Huber
)

// Estimate is a fitted local surface patch around a center position.
type Estimate struct {
	// A, B, C are the fitted quadratic coefficients of
	// z = A·x² + B·x·y + C·y² in coordinates centered on the fit origin.
	A, B, C float64
	// G1 and G2 are the principal curvatures (paper Eqns 12–13).
	G1, G2 float64
	// Gaussian is G = G1·G2.
	Gaussian float64
	// Samples is the number of samples used for the fit.
	Samples int
}

// Fit fits the quadratic patch to samples in coordinates centered at
// origin. The paper's Eqn 11 fits the pure model z = a·x² + b·x·y + c·y²,
// which implicitly assumes the samples are expressed relative to the local
// tangent plane. With six or more samples we therefore fit the full
// quadric z = a·x² + b·x·y + c·y² + d·x + e·y + f — absorbing the local
// slope and offset into (d, e, f) so that (a, b, c) measure only curvature
// — and read off the second-order coefficients; with 3–5 samples we fall
// back to the paper's literal 3-term model.
//
// Fit runs a fresh Fitter; callers fitting repeatedly should hold one.
func Fit(origin geom.Vec2, samples []field.Sample, method Method) (Estimate, error) {
	return NewFitter(method).Fit(origin, samples)
}

// AbsGaussian returns |G| — the magnitude used for curvature weighting;
// both bumps (G > 0) and saddles (G < 0) are information-rich regions
// worth sampling densely.
func (e Estimate) AbsGaussian() float64 { return math.Abs(e.Gaussian) }

// Map samples the analytic Gaussian curvature of a field over an
// (n+1)×(n+1) lattice by local quadratic fits with the given sensing
// radius, returning a field of |G| values. It is used to compute the
// curvature-weighted target distribution (CWD) when global information is
// available (paper Section 5.1).
func Map(f field.Field, n int, rs float64, method Method) (*GridMap, error) {
	if n < 1 {
		n = 1
	}
	if rs <= 0 {
		return nil, fmt.Errorf("curvature: sensing radius must be positive, got %v", rs)
	}
	sampler := field.NewSampler(0, 1)
	fitter := NewFitter(method)
	g := &GridMap{region: f.Bounds(), n: n, vals: make([]float64, (n+1)*(n+1))}
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			p := g.pos(i, j)
			est, err := fitter.Fit(p, sampler.Disc(f, p, rs))
			if err != nil {
				return nil, fmt.Errorf("curvature: map cell (%d,%d): %w", i, j, err)
			}
			g.vals[i*(n+1)+j] = est.AbsGaussian()
		}
	}
	return g, nil
}

// GridMap is a lattice of curvature magnitudes over a region.
type GridMap struct {
	region geom.Rect
	n      int
	vals   []float64
}

// Bounds implements field.Field.
func (g *GridMap) Bounds() geom.Rect { return g.region }

// Eval implements field.Field by nearest-lattice lookup.
func (g *GridMap) Eval(p geom.Vec2) float64 {
	i := int(math.Round(float64(g.n) * (p.X - g.region.Min.X) / g.region.Width()))
	j := int(math.Round(float64(g.n) * (p.Y - g.region.Min.Y) / g.region.Height()))
	i = clampInt(i, 0, g.n)
	j = clampInt(j, 0, g.n)
	return g.vals[i*(g.n+1)+j]
}

// Max returns the lattice position and value of the maximum curvature.
func (g *GridMap) Max() (geom.Vec2, float64) {
	best := 0
	for k, v := range g.vals {
		if v > g.vals[best] {
			best = k
		}
	}
	return g.pos(best/(g.n+1), best%(g.n+1)), g.vals[best]
}

// Total returns the lattice sum of curvature values, used to normalize
// curvature-weighted densities.
func (g *GridMap) Total() float64 {
	s := 0.0
	for _, v := range g.vals {
		s += v
	}
	return s
}

func (g *GridMap) pos(i, j int) geom.Vec2 {
	return geom.V2(
		g.region.Min.X+g.region.Width()*float64(i)/float64(g.n),
		g.region.Min.Y+g.region.Height()*float64(j)/float64(g.n),
	)
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
