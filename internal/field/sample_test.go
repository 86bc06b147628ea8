package field

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestSamplerIdeal(t *testing.T) {
	f := Plane(geom.Square(10), 1, 1, 0)
	s := NewSampler(0, 1)
	got := s.At(f, geom.V2(3, 4))
	if got.Z != 7 || got.Pos != geom.V2(3, 4) {
		t.Errorf("sample = %+v", got)
	}
	if v := got.Vec3(); v != geom.V3(3, 4, 7) {
		t.Errorf("Vec3 = %v", v)
	}
}

func TestSamplerNoiseStatistics(t *testing.T) {
	f := Constant(geom.Square(10), 5)
	s := NewSampler(0.5, 42)
	n := 5000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		z := s.At(f, geom.V2(5, 5)).Z
		sum += z
		sum2 += z * z
	}
	mean := sum / float64(n)
	std := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("noisy mean = %v, want ≈ 5", mean)
	}
	if math.Abs(std-0.5) > 0.05 {
		t.Errorf("noisy std = %v, want ≈ 0.5", std)
	}
}

func TestSamplerDeterministicSeed(t *testing.T) {
	f := Constant(geom.Square(10), 0)
	a := NewSampler(1, 7)
	b := NewSampler(1, 7)
	for i := 0; i < 10; i++ {
		if a.At(f, geom.V2(1, 1)).Z != b.At(f, geom.V2(1, 1)).Z {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDiscSampleCount(t *testing.T) {
	// The paper: m = ⌊πRs²⌋ positions for sensing range Rs. With integer
	// lattice sampling, the count of lattice points in a radius-5 disc is
	// close to π·25 ≈ 78.
	f := Constant(geom.Square(100), 1)
	s := NewSampler(0, 1)
	got := s.Disc(f, geom.V2(50, 50), 5)
	m := len(got)
	if m < 70 || m > 90 {
		t.Errorf("disc samples = %d, want ≈ 78", m)
	}
	for _, sm := range got {
		if sm.Pos.Dist(geom.V2(50, 50)) > 5 {
			t.Errorf("sample %v outside sensing range", sm.Pos)
		}
	}
}

func TestDiscIncludesCenterAndClipsBounds(t *testing.T) {
	f := Constant(geom.Square(100), 1)
	s := NewSampler(0, 1)
	got := s.Disc(f, geom.V2(0.5, 0.5), 5) // near the corner
	foundCenter := false
	for _, sm := range got {
		if sm.Pos == geom.V2(0.5, 0.5) {
			foundCenter = true
		}
		if !f.Bounds().Contains(sm.Pos) {
			t.Errorf("sample %v outside bounds", sm.Pos)
		}
	}
	if !foundCenter {
		t.Error("center sample missing")
	}
	// Corner disc has roughly a quarter of the full count.
	full := len(s.Disc(f, geom.V2(50, 50), 5))
	if len(got) >= full {
		t.Errorf("corner disc (%d) not smaller than center disc (%d)", len(got), full)
	}
}

// TestDiscLatticeOrder pins the order DiscTimeInto lists a disc in: the
// center's own sample first, and only when the center is in bounds, then
// every in-bounds lattice point within rs in ix-major, iy-minor order,
// with a center that sits exactly on a lattice point not repeated. In
// this order a clean disc's lattice samples already sort by (dx, dy)
// within each distance shell, which curvature.Fitter.Peak's walk relies
// on for speed, not for correctness.
func TestDiscLatticeOrder(t *testing.T) {
	region := geom.Square(100)
	f := Plane(region, 0.5, -0.25, 3)
	const rs = 5
	centers := []geom.Vec2{
		geom.V2(50.3, 40.7),   // off-lattice interior
		geom.V2(50, 40),       // on-lattice interior
		geom.V2(0, 37.5),      // off-lattice on the left edge
		geom.V2(100, 50),      // on-lattice on the right edge
		geom.V2(2.2, 99.6),    // off-lattice near a corner
		geom.V2(0, 0),         // on-lattice corner
		geom.V2(100, 100),     // on-lattice corner
		geom.V2(-0.5, 50),     // outside the region: no own sample
		geom.V2(100.25, 0.75), // outside, off-lattice, near a corner
	}
	s := NewSampler(0, 1)
	for _, c := range centers {
		got := s.DiscTimeInto(nil, Static(f), c, rs, 0)
		lattice := got
		if region.Contains(c) {
			if len(got) == 0 || got[0].Pos != c {
				t.Fatalf("center %v: first sample %v, want the own sample", c, got[:min(1, len(got))])
			}
			lattice = got[1:]
		}
		var want []geom.Vec2
		for ix := -10; ix <= 110; ix++ {
			for iy := -10; iy <= 110; iy++ {
				p := geom.V2(float64(ix), float64(iy))
				if p != c && region.Contains(p) && p.Dist(c) <= rs {
					want = append(want, p)
				}
			}
		}
		if len(lattice) != len(want) {
			t.Fatalf("center %v: %d lattice samples, want %d", c, len(lattice), len(want))
		}
		for i, sm := range lattice {
			if sm.Pos != want[i] {
				t.Fatalf("center %v: lattice sample %d at %v, want %v", c, i, sm.Pos, want[i])
			}
			if sm.Z != f.Eval(sm.Pos) {
				t.Fatalf("center %v: sample at %v reads %v, want %v", c, sm.Pos, sm.Z, f.Eval(sm.Pos))
			}
		}
	}
}

func TestGridPositions(t *testing.T) {
	pos := GridPositions(geom.Square(10), 2)
	if len(pos) != 9 {
		t.Fatalf("len = %d, want 9", len(pos))
	}
	r := geom.Square(10)
	corners := map[geom.Vec2]bool{}
	for _, p := range pos {
		if !r.Contains(p) {
			t.Errorf("position %v outside region", p)
		}
		corners[p] = true
	}
	for _, c := range r.Corners() {
		if !corners[c] {
			t.Errorf("corner %v missing from lattice", c)
		}
	}
	if got := GridPositions(geom.Square(10), 0); len(got) != 4 {
		t.Errorf("n=0 clamps to 1: got %d positions", len(got))
	}
}

func TestSampleGrid(t *testing.T) {
	f := Plane(geom.Square(10), 1, 0, 0)
	got := SampleGrid(f, 10, NewSampler(0, 1))
	if len(got) != 121 {
		t.Fatalf("len = %d", len(got))
	}
	for _, sm := range got {
		if sm.Z != sm.Pos.X {
			t.Fatalf("sample %+v inconsistent", sm)
		}
	}
}

func TestRandomPositions(t *testing.T) {
	r := geom.Square(100)
	pos := RandomPositions(r, 50, 9)
	if len(pos) != 50 {
		t.Fatalf("len = %d", len(pos))
	}
	for _, p := range pos {
		if !r.Contains(p) {
			t.Errorf("%v outside region", p)
		}
	}
	// Determinism.
	again := RandomPositions(r, 50, 9)
	for i := range pos {
		if pos[i] != again[i] {
			t.Fatal("same seed diverged")
		}
	}
	if RandomPositions(r, 0, 1) != nil && len(RandomPositions(r, 0, 1)) != 0 {
		t.Error("k=0 should be empty")
	}
}

func TestGridLayout(t *testing.T) {
	r := geom.Square(100)
	tests := []struct {
		k int
	}{{1}, {4}, {10}, {16}, {100}, {7}}
	for _, tc := range tests {
		pos := GridLayout(r, tc.k)
		if len(pos) != tc.k {
			t.Fatalf("k=%d: len = %d", tc.k, len(pos))
		}
		seen := map[geom.Vec2]bool{}
		for _, p := range pos {
			if !r.Contains(p) {
				t.Errorf("k=%d: %v outside region", tc.k, p)
			}
			if seen[p] {
				t.Errorf("k=%d: duplicate position %v", tc.k, p)
			}
			seen[p] = true
		}
	}
	if got := GridLayout(r, 0); got != nil {
		t.Errorf("k=0 = %v, want nil", got)
	}
}

func TestGridLayout100IsTenByTen(t *testing.T) {
	pos := GridLayout(geom.Square(100), 100)
	xs := map[float64]int{}
	ys := map[float64]int{}
	for _, p := range pos {
		xs[p.X]++
		ys[p.Y]++
	}
	if len(xs) != 10 || len(ys) != 10 {
		t.Errorf("grid is %dx%d, want 10x10", len(xs), len(ys))
	}
	// Row/column counts must each be 10.
	for x, n := range xs {
		if n != 10 {
			t.Errorf("column x=%v has %d nodes", x, n)
		}
	}
}

// SampleGrid measures f at every position of an n-division lattice.
func SampleGrid(f Field, n int, s *Sampler) []Sample {
	pos := GridPositions(f.Bounds(), n)
	out := make([]Sample, len(pos))
	for i, p := range pos {
		out[i] = s.At(f, p)
	}
	return out
}
