package core

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
)

// Metamorphic tests for FRA: the algorithm has no ground truth to compare
// against, but it must commute with isometries and similarities of the
// problem — translating or scaling the field and region together must
// leave the refinement sequence and the final δ identical up to the same
// transform. Two transforms with different exactness guarantees:
//
//   - Scaling by a power of two (with Rc scaled alongside) is exact in
//     IEEE-754: coordinates, lattice positions, distances and areas all
//     scale without rounding, so every branch FRA takes is bit-identical
//     and the assertions are exact (δ scales by exactly s²).
//
//   - Integer translation keeps the evaluation lattice on exact integer
//     coordinates (Square(100) at GridN 50 has spacing 2), so the lattice
//     selections match exactly, but relay positions are derived by
//     arithmetic on translated coordinates and accumulate low-bit
//     rounding; those assertions carry a tiny tolerance.

// metamorphicOpts is the shared FRA configuration: large enough to place
// both refined nodes and relays, small enough to run in milliseconds.
func metamorphicOpts(k int, rc float64) FRAOptions {
	return FRAOptions{K: k, Rc: rc, GridN: 50}
}

// translate shifts a field's domain by t, evaluating the base field at the
// pulled-back point.
func translate(f field.Field, t geom.Vec2) field.Field {
	r := f.Bounds()
	return field.Func{
		F:      func(p geom.Vec2) float64 { return f.Eval(geom.V2(p.X-t.X, p.Y-t.Y)) },
		Region: geom.Rect{Min: geom.V2(r.Min.X+t.X, r.Min.Y+t.Y), Max: geom.V2(r.Max.X+t.X, r.Max.Y+t.Y)},
	}
}

// scale stretches a field's domain by s about the origin (values
// unchanged).
func scale(f field.Field, s float64) field.Field {
	r := f.Bounds()
	return field.Func{
		F:      func(p geom.Vec2) float64 { return f.Eval(geom.V2(p.X/s, p.Y/s)) },
		Region: geom.Rect{Min: geom.V2(r.Min.X*s, r.Min.Y*s), Max: geom.V2(r.Max.X*s, r.Max.Y*s)},
	}
}

// TestMetamorphicFRAScaling checks exact equivariance under a power-of-two
// similarity: FRA on the doubled field with doubled Rc must produce the
// doubled placement bit for bit, and δ must scale by exactly s² = 4.
func TestMetamorphicFRAScaling(t *testing.T) {
	base := field.Peaks(geom.Square(100))
	const s = 2.0
	for _, k := range []int{10, 25, 60} {
		p0, err := FRA(base, metamorphicOpts(k, 10))
		if err != nil {
			t.Fatalf("k=%d base FRA: %v", k, err)
		}
		p1, err := FRA(scale(base, s), metamorphicOpts(k, 10*s))
		if err != nil {
			t.Fatalf("k=%d scaled FRA: %v", k, err)
		}
		if p1.Refined != p0.Refined || p1.Relays != p0.Relays {
			t.Fatalf("k=%d: scaled run placed %d refined + %d relays, base %d + %d",
				k, p1.Refined, p1.Relays, p0.Refined, p0.Relays)
		}
		if len(p1.Nodes) != len(p0.Nodes) {
			t.Fatalf("k=%d: node count %d != %d", k, len(p1.Nodes), len(p0.Nodes))
		}
		for i := range p0.Nodes {
			want := geom.V2(p0.Nodes[i].X*s, p0.Nodes[i].Y*s)
			if p1.Nodes[i] != want {
				t.Fatalf("k=%d node %d: scaled run placed %v, want exactly %v (base %v)",
					k, i, p1.Nodes[i], want, p0.Nodes[i])
			}
		}
		e0, err := Evaluate(base, p0, 10, 50)
		if err != nil {
			t.Fatalf("k=%d base Evaluate: %v", k, err)
		}
		e1, err := Evaluate(scale(base, s), p1, 10*s, 50)
		if err != nil {
			t.Fatalf("k=%d scaled Evaluate: %v", k, err)
		}
		if e1.Delta != e0.Delta*s*s {
			t.Fatalf("k=%d: scaled δ=%v, want exactly s²·δ = %v", k, e1.Delta, e0.Delta*s*s)
		}
		if e1.Connected != e0.Connected || e1.Components != e0.Components {
			t.Fatalf("k=%d: connectivity changed under scaling: %+v vs %+v", k, e1, e0)
		}
	}
}

// TestMetamorphicFRATranslation checks equivariance under an integer
// translation: the placement must be the translated placement and δ
// unchanged, within the low-bit rounding that relay-position arithmetic
// picks up on shifted coordinates.
func TestMetamorphicFRATranslation(t *testing.T) {
	base := field.Peaks(geom.Square(100))
	shift := geom.V2(37, -12)
	const posTol = 1e-9
	for _, k := range []int{10, 25, 60} {
		p0, err := FRA(base, metamorphicOpts(k, 10))
		if err != nil {
			t.Fatalf("k=%d base FRA: %v", k, err)
		}
		p1, err := FRA(translate(base, shift), metamorphicOpts(k, 10))
		if err != nil {
			t.Fatalf("k=%d translated FRA: %v", k, err)
		}
		if p1.Refined != p0.Refined || p1.Relays != p0.Relays {
			t.Fatalf("k=%d: translated run placed %d refined + %d relays, base %d + %d",
				k, p1.Refined, p1.Relays, p0.Refined, p0.Relays)
		}
		if len(p1.Nodes) != len(p0.Nodes) {
			t.Fatalf("k=%d: node count %d != %d", k, len(p1.Nodes), len(p0.Nodes))
		}
		for i := range p0.Nodes {
			want := geom.V2(p0.Nodes[i].X+shift.X, p0.Nodes[i].Y+shift.Y)
			if math.Abs(p1.Nodes[i].X-want.X) > posTol || math.Abs(p1.Nodes[i].Y-want.Y) > posTol {
				t.Fatalf("k=%d node %d: translated run placed %v, want %v ± %g (base %v)",
					k, i, p1.Nodes[i], want, posTol, p0.Nodes[i])
			}
		}
		e0, err := Evaluate(base, p0, 10, 50)
		if err != nil {
			t.Fatalf("k=%d base Evaluate: %v", k, err)
		}
		e1, err := Evaluate(translate(base, shift), p1, 10, 50)
		if err != nil {
			t.Fatalf("k=%d translated Evaluate: %v", k, err)
		}
		if rel := math.Abs(e1.Delta-e0.Delta) / (1 + e0.Delta); rel > 1e-9 {
			t.Fatalf("k=%d: translated δ=%v vs base δ=%v (relative drift %v)", k, e1.Delta, e0.Delta, rel)
		}
		if e1.Connected != e0.Connected || e1.Components != e0.Components {
			t.Fatalf("k=%d: connectivity changed under translation: %+v vs %+v", k, e1, e0)
		}
	}
}
