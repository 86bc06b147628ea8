package field

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// TestLatticeServesFieldBits checks that a filled Lattice answers every
// query with the field's own bits: table entries inside the box at the
// view's time, and delegation for off-lattice points, points outside the
// box, -0 coordinates and other times. Disc readings through the view
// equal direct ones.
func TestLatticeServesFieldBits(t *testing.T) {
	d := PlumeScenario(geom.Square(100), 3, 2, 0.6, 0.8, 0.01, 5)
	const at = 7
	var l Lattice
	l.Reset(d, at, 0, 20, 41, 17)
	for lo := 0; lo < l.Rows(); lo += 4 {
		l.FillRows(lo, min(lo+4, l.Rows()))
	}
	queries := []struct {
		p geom.Vec2
		t float64
	}{
		{geom.V2(0, 20), at}, {geom.V2(40, 36), at}, {geom.V2(25, 30), at},
		{geom.V2(25.5, 30), at}, {geom.V2(-1, 20), at}, {geom.V2(41, 20), at},
		{geom.V2(25, 37), at}, {geom.V2(25, 30), at + 1},
		{geom.V2(math.Copysign(0, -1), 25), at},
	}
	for _, q := range queries {
		if got, want := l.EvalAt(q.p, q.t), d.EvalAt(q.p, q.t); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("EvalAt(%v, %v) = %v, want %v", q.p, q.t, got, want)
		}
	}
	if l.Bounds() != d.Bounds() {
		t.Errorf("Bounds = %v, want %v", l.Bounds(), d.Bounds())
	}
	s := NewSampler(0, 1)
	for _, c := range []geom.Vec2{geom.V2(25.3, 28.9), geom.V2(2, 21), geom.V2(39.5, 35.5)} {
		direct := s.DiscTimeInto(nil, d, c, 5, at)
		viaView := s.DiscTimeInto(nil, &l, c, 5, at)
		if len(direct) != len(viaView) {
			t.Fatalf("center %v: %d samples via the view, want %d", c, len(viaView), len(direct))
		}
		for i := range direct {
			if direct[i].Pos != viaView[i].Pos || math.Float64bits(direct[i].Z) != math.Float64bits(viaView[i].Z) {
				t.Fatalf("center %v: sample %d = %+v via the view, want %+v", c, i, viaView[i], direct[i])
			}
		}
	}
}
