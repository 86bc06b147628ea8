package spatial

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func randPts(rng *rand.Rand, n int, side float64) []geom.Vec2 {
	pts := make([]geom.Vec2, n)
	for i := range pts {
		pts[i] = geom.V2(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

func bruteWithin(pts []geom.Vec2, q geom.Vec2, r float64) []int {
	var out []int
	for i, p := range pts {
		if p.Dist(q) <= r {
			out = append(out, i)
		}
	}
	return out
}

func TestNewIndexErrors(t *testing.T) {
	for _, cell := range []float64{0, -1} {
		if _, err := NewIndex(nil, cell); err == nil {
			t.Errorf("cell=%v: want error", cell)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	idx, err := NewIndex(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Within(nil, geom.V2(0, 0), 5); len(got) != 0 {
		t.Errorf("Within = %v", got)
	}
	idx.Pairs(5, func(i, j int) { t.Error("pair on empty index") })
}

func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		pts := randPts(rng, 1+rng.Intn(200), 100)
		idx, err := NewIndex(pts, 5+rng.Float64()*15)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			query := geom.V2(rng.Float64()*120-10, rng.Float64()*120-10)
			r := rng.Float64() * 30
			got := idx.Within(nil, query, r)
			want := bruteWithin(pts, query, r)
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d hits, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: got %v, want %v", trial, got, want)
				}
			}
		}
	}
}

func TestWithinReusesDst(t *testing.T) {
	pts := []geom.Vec2{geom.V2(0, 0), geom.V2(1, 0), geom.V2(50, 50)}
	idx, err := NewIndex(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	buf = idx.Within(buf, geom.V2(0, 0), 2)
	if len(buf) != 2 {
		t.Fatalf("hits = %v", buf)
	}
	buf = idx.Within(buf[:0], geom.V2(50, 50), 1)
	if len(buf) != 1 || buf[0] != 2 {
		t.Fatalf("reused buffer hits = %v", buf)
	}
}

func TestPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		pts := randPts(rng, 2+rng.Intn(120), 100)
		r := 5 + rng.Float64()*20
		idx, err := NewIndex(pts, r)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct{ i, j int }
		got := map[pair]int{}
		idx.Pairs(r, func(i, j int) {
			if i >= j {
				t.Fatalf("pair (%d,%d) not ordered", i, j)
			}
			got[pair{i, j}]++
		})
		want := map[pair]bool{}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				if pts[i].Dist(pts[j]) <= r {
					want[pair{i, j}] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(got), len(want))
		}
		for p, n := range got {
			if !want[p] {
				t.Fatalf("extra pair %v", p)
			}
			if n != 1 {
				t.Fatalf("pair %v reported %d times", p, n)
			}
		}
	}
}

func TestPairsCellSmallerThanRadius(t *testing.T) {
	// The cell size need not equal the query radius.
	pts := []geom.Vec2{geom.V2(0, 0), geom.V2(9, 0), geom.V2(30, 0)}
	idx, err := NewIndex(pts, 2) // cells much smaller than r
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	idx.Pairs(10, func(i, j int) { count++ })
	if count != 1 {
		t.Errorf("pairs = %d, want 1", count)
	}
}

func TestWithinProperty(t *testing.T) {
	// Every reported index is within r; count matches brute force.
	f := func(seed int64, rRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randPts(rng, 1+rng.Intn(60), 50)
		r := 1 + float64(int(rRaw*7)%20)
		if r < 0 {
			r = -r
		}
		idx, err := NewIndex(pts, 5)
		if err != nil {
			return false
		}
		q := geom.V2(rng.Float64()*50, rng.Float64()*50)
		got := idx.Within(nil, q, r)
		if !sort.IntsAreSorted(got) {
			return false
		}
		for _, i := range got {
			if pts[i].Dist(q) > r {
				return false
			}
		}
		return len(got) == len(bruteWithin(pts, q, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPointAccessor checks that queries read the index's own copy of the
// points: NewIndex and Reset copy their input, so later writes to the
// caller's slice move no indexed point.
func TestPointAccessor(t *testing.T) {
	pts := []geom.Vec2{geom.V2(3, 4)}
	idx, err := NewIndex(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts[0] = geom.V2(-1, -1)
	if got := idx.Within(nil, geom.V2(3, 4), 0); len(got) != 1 {
		t.Errorf("NewIndex shares caller storage: Within = %v", got)
	}
	idx.Reset(pts)
	pts[0] = geom.V2(3, 4)
	if got := idx.Within(nil, geom.V2(-1, -1), 0); len(got) != 1 {
		t.Errorf("Reset shares caller storage: Within = %v", got)
	}
}

// TestResetAllocFree checks that re-indexing a same-size point set reuses
// the index's storage: a moving swarm re-indexes every slot for free.
func TestResetAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randPts(rng, 200, 100), randPts(rng, 200, 140)
	idx, err := NewIndex(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	idx.Reset(b) // grow to the larger of the two grids once
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		if flip = !flip; flip {
			idx.Reset(a)
		} else {
			idx.Reset(b)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset allocates %v times per run, want 0", allocs)
	}
}
