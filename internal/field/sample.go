package field

import (
	"math/rand"

	"repro/internal/geom"
)

// Sample is one sensed data point: a plane position and the environment
// value measured there.
type Sample struct {
	// Pos is the sensing position on the region plane.
	Pos geom.Vec2
	// Z is the measured environment value.
	Z float64
}

// Vec3 lifts the sample onto the virtual surface in R³.
func (s Sample) Vec3() geom.Vec3 { return geom.V3(s.Pos.X, s.Pos.Y, s.Z) }

// Sampler measures a field, optionally corrupting readings with Gaussian
// noise — the sensing model of a CPS node's digital sensor.
type Sampler struct {
	// NoiseStd is the standard deviation of additive Gaussian measurement
	// noise; zero means ideal sensing.
	NoiseStd float64

	rng *rand.Rand
}

// NewSampler returns a sampler with the given measurement noise and seed.
// A zero NoiseStd yields deterministic ideal measurements.
func NewSampler(noiseStd float64, seed int64) *Sampler {
	return &Sampler{NoiseStd: noiseStd, rng: rand.New(rand.NewSource(seed))}
}

// At measures field f at position p.
func (s *Sampler) At(f Field, p geom.Vec2) Sample {
	z := f.Eval(p)
	if s.NoiseStd > 0 {
		z += s.rng.NormFloat64() * s.NoiseStd
	}
	return Sample{Pos: p, Z: z}
}

// AtTime measures dynamic field d at position p and time t.
func (s *Sampler) AtTime(d DynField, p geom.Vec2, t float64) Sample {
	z := d.EvalAt(p, t)
	if s.NoiseStd > 0 {
		z += s.rng.NormFloat64() * s.NoiseStd
	}
	return Sample{Pos: p, Z: z}
}

// Disc measures f at every integer-spaced position within radius rs of
// center (Dist² ≤ rs², inside the field bounds) — the paper's sensing
// model where a node "can get data of m = ⌊πRs²⌋ positions" in its
// sensing range. The center position itself is always included.
func (s *Sampler) Disc(f Field, center geom.Vec2, rs float64) []Sample {
	return s.DiscTime(Static(f), center, rs, 0)
}

// DiscTime is Disc against a dynamic field at time t.
func (s *Sampler) DiscTime(d DynField, center geom.Vec2, rs float64, t float64) []Sample {
	return s.DiscTimeInto(nil, d, center, rs, t)
}

// DiscTimeInto is DiscTime appending into dst, typically dst[:0] of a
// buffer reused across slots so steady-state sensing is allocation-free.
// Measurement order — and hence the noise RNG draw order — is identical to
// DiscTime.
func (s *Sampler) DiscTimeInto(dst []Sample, d DynField, center geom.Vec2, rs float64, t float64) []Sample {
	bounds := d.Bounds()
	out := dst
	if bounds.Contains(center) {
		out = append(out, s.AtTime(d, center, t))
	}
	minX, maxX := int(center.X-rs)-1, int(center.X+rs)+1
	minY, maxY := int(center.Y-rs)-1, int(center.Y+rs)+1
	for ix := minX; ix <= maxX; ix++ {
		for iy := minY; iy <= maxY; iy++ {
			p := geom.V2(float64(ix), float64(iy))
			if p == center || !bounds.Contains(p) {
				continue
			}
			if p.Dist2(center) > rs*rs {
				continue
			}
			out = append(out, s.AtTime(d, p, t))
		}
	}
	return out
}

// GridPositions returns the (n+1)×(n+1) lattice of positions covering r
// with spacing r.Width()/n — the √A × √A local-error lattice of the FRA
// pseudocode when n = side length.
func GridPositions(r geom.Rect, n int) []geom.Vec2 {
	if n < 1 {
		n = 1
	}
	out := make([]geom.Vec2, 0, (n+1)*(n+1))
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			out = append(out, geom.V2(
				r.Min.X+r.Width()*float64(i)/float64(n),
				r.Min.Y+r.Height()*float64(j)/float64(n),
			))
		}
	}
	return out
}

// RandomPositions returns k positions uniformly distributed over r — the
// "random deployment" baseline the paper compares FRA against (Fig. 7).
func RandomPositions(r geom.Rect, k int, seed int64) []geom.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Vec2, k)
	for i := range out {
		out[i] = geom.V2(
			r.Min.X+rng.Float64()*r.Width(),
			r.Min.Y+rng.Float64()*r.Height(),
		)
	}
	return out
}

// GridLayout returns k positions arranged on the most-square grid that
// fits k nodes, centered in r — the paper's connected initial state for
// the mobile experiments (Fig. 8a: "the 100 nodes are grid distribution").
// For non-square k the last row is centered.
func GridLayout(r geom.Rect, k int) []geom.Vec2 {
	if k <= 0 {
		return nil
	}
	cols := 1
	for cols*cols < k {
		cols++
	}
	rows := (k + cols - 1) / cols
	dx := r.Width() / float64(cols)
	dy := r.Height() / float64(rows)
	out := make([]geom.Vec2, 0, k)
	for i := 0; i < k; i++ {
		row := i / cols
		col := i % cols
		// Center the (possibly short) final row.
		inRow := cols
		if row == rows-1 {
			inRow = k - row*cols
		}
		offset := (float64(cols-inRow) / 2) * dx
		out = append(out, geom.V2(
			r.Min.X+offset+dx*(float64(col)+0.5),
			r.Min.Y+dy*(float64(row)+0.5),
		))
	}
	return out
}
