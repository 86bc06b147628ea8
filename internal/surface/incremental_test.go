package surface

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
)

// TestUpdateRegionMatchesFullUpdate grows a TIN point by point, refreshing
// one grid from the triangles each insertion created and a twin grid
// through the per-point oracle (evalUpdate). The two must stay
// bit-identical: the new triangles cover every lattice point whose
// covering triangle changed.
func TestUpdateRegionMatchesFullUpdate(t *testing.T) {
	region := geom.Square(100)
	f := field.Peaks(region)
	const gridN = 40

	tin := NewTIN(region)
	for _, c := range region.Corners() {
		if err := tin.Add(field.Sample{Pos: c, Z: f.Eval(c)}); err != nil {
			t.Fatal(err)
		}
	}
	inc := NewLocalErrorGrid(f, gridN)
	full := NewLocalErrorGrid(f, gridN)
	inc.Update(tin)
	full.evalUpdate(tin)

	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 120; step++ {
		// Mix lattice-aligned points (FRA's candidates, rife with on-edge
		// and on-vertex geometry) with arbitrary positions.
		var p geom.Vec2
		if step%2 == 0 {
			p = geom.V2(float64(rng.Intn(101)), float64(rng.Intn(101)))
		} else {
			p = geom.V2(rng.Float64()*100, rng.Float64()*100)
		}
		created, exact, err := tin.AddDirty(field.Sample{Pos: p, Z: f.Eval(p)})
		if err != nil {
			continue // duplicate position
		}
		if !exact {
			t.Fatalf("step %d: corners pre-seeded, every insert must be exact", step)
		}
		inc.UpdateTriangles(tin, created)
		full.evalUpdate(tin)
		requireSameErrors(t, fmt.Sprintf("step %d p=%v", step, p), inc, full)
	}
}

// requireSameErrors fails unless the two grids hold Float64bits-identical
// local errors.
func requireSameErrors(t *testing.T, what string, inc, full *LocalErrorGrid) {
	t.Helper()
	for i := 0; i <= inc.N(); i++ {
		for j := 0; j <= inc.N(); j++ {
			if ig, fg := inc.Err(i, j), full.Err(i, j); math.Float64bits(ig) != math.Float64bits(fg) {
				t.Fatalf("%s node(%d,%d): incremental %v != full %v", what, i, j, ig, fg)
			}
		}
	}
}

// TestScanConvertMatchesFullUpdate runs the incremental-vs-oracle equality
// on degenerate clouds, where scan conversion meets nodes exactly on
// edges and vertices: points on lattice lines, collinear rows, cocircular
// rings and duplicates, at GridN 37 and 100, on the square region and on
// a non-square one offset from the origin. Lattice-aligned points are the
// grid's own node positions, as FRA inserts them. Points a few ulps off a
// node are left out: the tolerant predicates then let the walk stop in
// triangles whose on-edge rules differ, so a node's value depends on the
// walk's path and no refresh that does not repeat Eval's walks can match
// it. After every insert the row-maxima argmax must equal the
// full-scan ArgMax.
func TestScanConvertMatchesFullUpdate(t *testing.T) {
	for rname, region := range degenerateRegions {
		for cname, cloud := range degenerateClouds {
			for _, gridN := range []int{37, 100} {
				name := fmt.Sprintf("%s/%s/n=%d", rname, cname, gridN)
				t.Run(name, func(t *testing.T) {
					f := field.Peaks(region)
					tin := NewTIN(region)
					for _, c := range region.Corners() {
						if err := tin.Add(field.Sample{Pos: c, Z: f.Eval(c)}); err != nil {
							t.Fatal(err)
						}
					}
					inc := NewLocalErrorGrid(f, gridN)
					full := NewLocalErrorGrid(f, gridN)
					inc.Update(tin)
					full.evalUpdate(tin)
					for step, p := range cloud(inc, rand.New(rand.NewSource(int64(gridN)))) {
						created, exact, err := tin.AddDirty(field.Sample{Pos: p, Z: f.Eval(p)})
						if err != nil {
							continue // duplicate position
						}
						if !exact {
							t.Fatalf("step %d: corners pre-seeded, every insert must be exact", step)
						}
						inc.UpdateTriangles(tin, created)
						full.evalUpdate(tin)
						what := fmt.Sprintf("step %d p=%v", step, p)
						requireSameErrors(t, what, inc, full)
						wi, wj, we := full.ArgMax()
						gi, gj, ge, ok := inc.MaxNode()
						if !ok || gi != wi || gj != wj || math.Float64bits(ge) != math.Float64bits(we) {
							t.Fatalf("%s: MaxNode = (%d,%d,%v,%v), ArgMax = (%d,%d,%v)", what, gi, gj, ge, ok, wi, wj, we)
						}
					}
				})
			}
		}
	}
}

// degenerateRegions and degenerateClouds are the inputs of the scan
// conversion tests: the square region and a non-square one offset from the
// origin, and clouds that put lattice nodes exactly on edges and vertices.
// A cloud builds its points for the lattice of g.
var degenerateRegions = map[string]geom.Rect{
	"square": geom.Square(100),
	"offset": {Min: geom.V2(-37.5, 12), Max: geom.V2(52.5, 72)},
}

// ring holds the 12 integer points of the circle of radius 5.
var ring = [][2]int{{5, 0}, {4, 3}, {3, 4}, {0, 5}, {-3, 4}, {-4, 3}, {-5, 0}, {-4, -3}, {-3, -4}, {0, -5}, {3, -4}, {4, -3}}

var degenerateClouds = map[string]func(g *LocalErrorGrid, rng *rand.Rand) []geom.Vec2{
	// A lattice x at an arbitrary y, and the other way round.
	"gridlines": func(g *LocalErrorGrid, rng *rand.Rand) []geom.Vec2 {
		var ps []geom.Vec2
		for k := 0; k < 60; k++ {
			node, free := g.Pos(rng.Intn(g.N()+1), rng.Intn(g.N()+1)), at(g.region, rng.Float64(), rng.Float64())
			if k%2 == 0 {
				ps = append(ps, geom.V2(node.X, free.Y))
			} else {
				ps = append(ps, geom.V2(free.X, node.Y))
			}
		}
		return ps
	},
	// A whole lattice row, a column and the diagonal, then one
	// arbitrary point that splits many of their thin triangles.
	"collinear": func(g *LocalErrorGrid, rng *rand.Rand) []geom.Vec2 {
		var ps []geom.Vec2
		for k := 1; k < g.N(); k += 3 {
			ps = append(ps, g.Pos(k, g.N()/2), g.Pos(g.N()/4, k), g.Pos(k, k))
		}
		return append(ps, at(g.region, rng.Float64(), rng.Float64()))
	},
	// Lattice rings of radius 5 and 10 nodes around two centers, and
	// one off-lattice ring: cocircular on the square region.
	"cocircular": func(g *LocalErrorGrid, rng *rand.Rand) []geom.Vec2 {
		var ps []geom.Vec2
		for _, c := range [][3]int{{g.N() / 2, g.N() / 2, 1}, {g.N() / 2, g.N() / 2, 2}, {g.N() / 3, 2 * g.N() / 3, 1}} {
			for _, d := range ring {
				ps = append(ps, g.Pos(c[0]+c[2]*d[0], c[1]+c[2]*d[1]))
			}
		}
		center := at(g.region, 0.6037, 0.3973)
		for _, d := range ring {
			ps = append(ps, center.Add(geom.V2(float64(d[0]), float64(d[1])).Scale(2.3)))
		}
		return ps
	},
	// Lattice and arbitrary points, every one inserted twice.
	"duplicates": func(g *LocalErrorGrid, rng *rand.Rand) []geom.Vec2 {
		var ps []geom.Vec2
		for k := 0; k < 40; k++ {
			p := g.Pos(rng.Intn(g.N()+1), rng.Intn(g.N()+1))
			if k%4 == 3 {
				p = at(g.region, rng.Float64(), rng.Float64())
			}
			ps = append(ps, p, p)
		}
		return ps
	},
}

// TestMaxNodeTieRule pins the row-major tie rule of the row maxima: a
// field whose local errors peak equally along two whole rows must give
// the first node of the first row, as the full-scan ArgMax does.
func TestMaxNodeTieRule(t *testing.T) {
	region := geom.Square(100)
	// Zero on the rows x = 25 and x = 75 and equal at the four corners, so
	// the corner-only TIN is flat and the error peaks on both rows.
	f := field.Func{Region: region, F: func(p geom.Vec2) float64 {
		d := (p.X - 25) * (p.X - 75)
		return d * d
	}}
	tin := NewTIN(region)
	for _, c := range region.Corners() {
		if err := tin.Add(field.Sample{Pos: c, Z: f.Eval(c)}); err != nil {
			t.Fatal(err)
		}
	}
	g := NewLocalErrorGrid(f, 100)
	g.Update(tin)
	wi, wj, we := g.ArgMax()
	gi, gj, ge, ok := g.MaxNode()
	if !ok || gi != 25 || gj != 0 || gi != wi || gj != wj || ge != we {
		t.Errorf("MaxNode = (%d,%d,%v,%v), ArgMax = (%d,%d,%v), want (25,0)", gi, gj, ge, ok, wi, wj, we)
	}

	// A NaN error has no place in the order, so MaxNode declines and FRA
	// falls back to its scan.
	nan := NewLocalErrorGrid(field.Func{Region: region, F: func(p geom.Vec2) float64 {
		if p == geom.V2(60, 40) {
			return math.NaN()
		}
		return f.F(p)
	}}, 100)
	nan.Update(tin)
	if _, _, _, ok := nan.MaxNode(); ok {
		t.Error("MaxNode with a NaN error: ok = true, want false")
	}
}

// at maps unit-square coordinates (u, v) into r.
func at(r geom.Rect, u, v float64) geom.Vec2 {
	return geom.V2(r.Min.X+u*r.Width(), r.Min.Y+v*r.Height())
}

// TestUpdateTrianglesAllocs bounds the allocations of one exact insertion
// plus its lattice refresh on a warmed TIN and grid. The bound is what the
// bounding-box refresh it replaced allocated on the same workload: 8.
func TestUpdateTrianglesAllocs(t *testing.T) {
	region := geom.Square(100)
	f := field.Peaks(region)
	tin := NewTIN(region)
	for _, c := range region.Corners() {
		if err := tin.Add(field.Sample{Pos: c, Z: f.Eval(c)}); err != nil {
			t.Fatal(err)
		}
	}
	g := NewLocalErrorGrid(f, 100)
	perm := rand.New(rand.NewSource(3)).Perm(101 * 101)
	next := 0
	interior := func() geom.Vec2 {
		for {
			k := perm[next]
			next++
			if p := geom.V2(float64(k/101), float64(k%101)); p.X > 0 && p.X < 100 && p.Y > 0 && p.Y < 100 {
				return p
			}
		}
	}
	for i := 0; i < 300; i++ {
		p := interior()
		if err := tin.Add(field.Sample{Pos: p, Z: f.Eval(p)}); err != nil {
			t.Fatal(err)
		}
	}
	g.Update(tin)
	allocs := testing.AllocsPerRun(200, func() {
		p := interior()
		created, _, err := tin.AddDirty(field.Sample{Pos: p, Z: f.Eval(p)})
		if err != nil {
			t.Fatal(err)
		}
		g.UpdateTriangles(tin, created)
	})
	if allocs > 8 {
		t.Errorf("insert + refresh allocates %v times, want at most 8", allocs)
	}
	t.Logf("insert + refresh: %v allocs", allocs)
}

// TestAddDirtyExactFlag verifies exact=false until all four region corners
// are present before the insertion: without full-hull coverage, the
// nearest-vertex fallback can change grid cells far outside the cavity.
func TestAddDirtyExactFlag(t *testing.T) {
	region := geom.Square(100)
	f := field.Peaks(region)
	tin := NewTIN(region)
	corners := region.Corners()
	for i, c := range corners {
		_, exact, err := tin.AddDirty(field.Sample{Pos: c, Z: f.Eval(c)})
		if err != nil {
			t.Fatal(err)
		}
		if exact {
			t.Errorf("corner %d: exact=true before full corner coverage", i)
		}
	}
	_, exact, err := tin.AddDirty(field.Sample{Pos: geom.V2(50, 50), Z: f.Eval(geom.V2(50, 50))})
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Error("insert after corner coverage must be exact")
	}
}

// TestAddDirtyFlatTriangle: on a small region the absolute predicate
// tolerances let a point on the diagonal split only one of the two corner
// triangles, leaving a zero-area triangle along the diagonal. From then
// on no insertion is exact, so FRA falls back to full refreshes.
func TestAddDirtyFlatTriangle(t *testing.T) {
	for _, size := range []float64{100, 1e-4} {
		region := geom.Square(size)
		tin := NewTIN(region)
		for _, c := range region.Corners() {
			if err := tin.Add(field.Sample{Pos: c, Z: c.X}); err != nil {
				t.Fatal(err)
			}
		}
		wantExact := size == 100
		for _, p := range []geom.Vec2{geom.V2(size/2, size/2), geom.V2(size/4, size/8)} {
			_, exact, err := tin.AddDirty(field.Sample{Pos: p, Z: p.Y})
			if err != nil {
				t.Fatal(err)
			}
			if exact != wantExact {
				t.Errorf("size %g insert %v: exact = %v, want %v", size, p, exact, wantExact)
			}
		}
	}
}

func TestArgMaxEmptyGrid(t *testing.T) {
	var g LocalErrorGrid
	i, j, e := g.ArgMax()
	if i != -1 || j != -1 || e != 0 {
		t.Errorf("ArgMax on zero grid = (%d,%d,%v), want (-1,-1,0)", i, j, e)
	}
}
