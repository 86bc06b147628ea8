package spatial

import (
	"testing"

	"repro/internal/geom"
)

// lattice returns an n×n unit-spaced grid anchored at the origin — every
// point sits exactly on a cell boundary when the cell size is 1.
func lattice(n int) []geom.Vec2 {
	pts := make([]geom.Vec2, 0, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			pts = append(pts, geom.V2(float64(x), float64(y)))
		}
	}
	return pts
}

// TestWithinCellBoundaryPoints queries points that lie exactly on grid
// cell boundaries: every lattice point at distance exactly r must be
// reported (the predicate is inclusive), regardless of which bucket the
// hashing assigned it to.
func TestWithinCellBoundaryPoints(t *testing.T) {
	pts := lattice(5)
	idx, err := NewIndex(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// From the center (2,2), radius 1 must catch exactly the 4-neighborhood
	// plus the center itself — the axis neighbors sit at distance exactly 1.
	got := idx.Within(nil, geom.V2(2, 2), 1)
	want := []int{7, 11, 12, 13, 17}
	if len(got) != len(want) {
		t.Fatalf("within(center,1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("within(center,1) = %v, want %v", got, want)
		}
	}
	// Querying from a point on the boundary between four cells must see
	// all four surrounding lattice points at distance exactly √2/2·…:
	// radius √2 from (1.5,1.5)·… — use radius 0.75 to catch the 4 corners
	// at distance ~0.707.
	corners := idx.Within(nil, geom.V2(1.5, 1.5), 0.75)
	if len(corners) != 4 {
		t.Fatalf("within(cell corner, 0.75) = %v, want the 4 surrounding corners", corners)
	}
}

// TestWithinZeroRadius checks r == 0: only points exactly at the query
// position qualify (distance 0 ≤ 0 is inclusive).
func TestWithinZeroRadius(t *testing.T) {
	pts := []geom.Vec2{geom.V2(0, 0), geom.V2(1, 0), geom.V2(0, 0)}
	idx, err := NewIndex(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.Within(nil, geom.V2(0, 0), 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("within(origin, 0) = %v, want [0 2]", got)
	}
	if out := idx.Within(nil, geom.V2(0.5, 0), 0); len(out) != 0 {
		t.Fatalf("within(off-point, 0) = %v, want empty", out)
	}
	// Negative radius is an empty query, not a panic.
	if out := idx.Within(nil, geom.V2(0, 0), -1); len(out) != 0 {
		t.Fatalf("within(origin, -1) = %v, want empty", out)
	}
}

// TestPairsZeroRadius checks Pairs with r == 0: only exactly coincident
// points pair up.
func TestPairsZeroRadius(t *testing.T) {
	pts := []geom.Vec2{geom.V2(0, 0), geom.V2(1, 0), geom.V2(0, 0), geom.V2(1, 0)}
	idx, err := NewIndex(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	idx.Pairs(0, func(i, j int) {
		if i >= j {
			t.Fatalf("pair (%d,%d) not ordered", i, j)
		}
		seen[[2]int{i, j}] = true
	})
	if len(seen) != 2 || !seen[[2]int{0, 2}] || !seen[[2]int{1, 3}] {
		t.Fatalf("pairs(0) = %v, want {(0,2),(1,3)}", seen)
	}
	idx.Pairs(-1, func(i, j int) { t.Fatalf("pairs(-1) visited (%d,%d)", i, j) })
}

// TestAllPointsCoincident collapses the whole point set onto one position:
// the index degenerates to a single bucket and must still report every
// point and every pair exactly once.
func TestAllPointsCoincident(t *testing.T) {
	const n = 25
	pts := make([]geom.Vec2, n)
	for i := range pts {
		pts[i] = geom.V2(3, 4)
	}
	idx, err := NewIndex(pts, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.Within(nil, geom.V2(3, 4), 0)
	if len(got) != n {
		t.Fatalf("within(coincident, 0) found %d of %d points", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("within order: got[%d] = %d, want ascending identity", i, v)
		}
	}
	// A bucket lists its points in ascending order, so the single bucket's
	// pairs arrive in lexicographic order, each once.
	var seq [][2]int
	idx.Pairs(0, func(i, j int) { seq = append(seq, [2]int{i, j}) })
	if want := n * (n - 1) / 2; len(seq) != want {
		t.Fatalf("pairs over coincident set = %d, want %d", len(seq), want)
	}
	for k := 1; k < len(seq); k++ {
		if a, b := seq[k-1], seq[k]; a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("pairs out of lexicographic order: %v then %v", a, b)
		}
	}
	// A distant query sees nothing at small radius and everything at a
	// covering one.
	if out := idx.Within(nil, geom.V2(100, 100), 1); len(out) != 0 {
		t.Fatalf("distant within = %v, want empty", out)
	}
	if out := idx.Within(nil, geom.V2(100, 100), 200); len(out) != n {
		t.Fatalf("covering within found %d of %d", len(out), n)
	}
}

// TestPairsBoundaryDistance places pairs at exactly the query radius:
// Dist² == r² must be included — the unit-disk inclusive edge rule.
func TestPairsBoundaryDistance(t *testing.T) {
	pts := []geom.Vec2{geom.V2(0, 0), geom.V2(2, 0), geom.V2(0, 2), geom.V2(5, 5)}
	idx, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	idx.Pairs(2, func(i, j int) { seen[[2]int{i, j}] = true })
	if !seen[[2]int{0, 1}] || !seen[[2]int{0, 2}] {
		t.Fatalf("pairs(2) = %v, want the two distance-2 edges included", seen)
	}
	if len(seen) != 2 {
		t.Fatalf("pairs(2) = %v, want exactly 2 edges", seen)
	}
}
