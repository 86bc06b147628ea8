package curvature

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
)

// TestCanonicalOffsets pins the memo's ball: the first m integer offsets
// in (dx²+dy², dx, dy) order and their radius r².
func TestCanonicalOffsets(t *testing.T) {
	for _, tc := range []struct {
		m  int
		r2 float64
	}{{3, 1}, {5, 1}, {9, 2}, {12, 4}, {13, 4}, {21, 5}, {25, 8}, {29, 9}} {
		offs := canonicalOffsets(tc.m)
		if len(offs) != tc.m {
			t.Fatalf("m=%d: %d offsets", tc.m, len(offs))
		}
		if r2 := offs[tc.m-1].Len2(); r2 != tc.r2 {
			t.Errorf("m=%d: r² = %v, want %v", tc.m, r2, tc.r2)
		}
		for i := 1; i < len(offs); i++ {
			a, b := offs[i-1], offs[i]
			if a.Len2() > b.Len2() || (a.Len2() == b.Len2() && (a.X > b.X || (a.X == b.X && a.Y >= b.Y))) {
				t.Fatalf("m=%d: offsets %v, %v out of (d², dx, dy) order", tc.m, a, b)
			}
		}
	}
	// m = 12 takes three of the four d² = 4 offsets and leaves out (2, 0),
	// the last in ix-major order.
	for _, o := range canonicalOffsets(12) {
		if o == geom.V2(2, 0) {
			t.Error("m=12 selected (2, 0)")
		}
	}
	if canonicalOffsets(maxMemoM+1) != nil {
		t.Error("offsets above maxMemoM")
	}
}

// TestPeakMemoBitIdentity runs every peak-candidate fit of a dense swarm
// of clean lattice discs through one shared memo and checks each served
// or filled |G| against a fresh FitNearest, bit for bit. Nodes sit near
// edges and corners too, so both the whole-ball and the per-point checks
// are exercised; the memo must actually serve fits, and none for another m.
func TestPeakMemoBitIdentity(t *testing.T) {
	region := geom.Square(30)
	dyn := field.Static(field.Peaks(region))
	sampler := field.NewSampler(0, 1)
	rng := rand.New(rand.NewSource(3))
	const rs = 5
	for _, m := range []int{9, 12, 21} {
		var pm PeakMemo
		pm.Reset(region, rs, m, 0, 0, 31, 31)
		memo, plain := NewFitter(QR), NewFitter(QR)
		memo.SetPeakMemo(&pm)
		for n := 0; n < 80; n++ {
			pos := geom.V2(rng.Float64()*30, rng.Float64()*30)
			samples := sampler.DiscTimeInto(nil, dyn, pos, rs, 0)
			for _, s := range samples {
				got, err := memo.NearestAbsGaussian(pos, s.Pos, samples, m)
				if err != nil {
					t.Fatal(err)
				}
				est, err := plain.FitNearest(s.Pos, samples, m)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(est.AbsGaussian()) {
					t.Fatalf("m=%d node at %v, candidate %v: |G| = %v, want %v", m, pos, s.Pos, got, est.AbsGaussian())
				}
			}
		}
		if memo.MemoHits() == 0 {
			t.Errorf("m=%d: memo served no fits", m)
		}
		hits := memo.MemoHits()
		pos := geom.V2(15.2, 14.9)
		samples := sampler.DiscTimeInto(nil, dyn, pos, rs, 0)
		for _, s := range samples {
			if _, err := memo.NearestAbsGaussian(pos, s.Pos, samples, m+1); err != nil {
				t.Fatal(err)
			}
		}
		if memo.MemoHits() != hits {
			t.Errorf("m=%d: memo served fits for m=%d", m, m+1)
		}
	}
}
