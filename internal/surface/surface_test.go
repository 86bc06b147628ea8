package surface

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/field"
	"repro/internal/geom"
)

func cornerSamples(f field.Field) []field.Sample {
	r := f.Bounds()
	var out []field.Sample
	for _, c := range r.Corners() {
		out = append(out, field.Sample{Pos: c, Z: f.Eval(c)})
	}
	return out
}

func TestFromSamplesEmpty(t *testing.T) {
	if _, err := FromSamples(geom.Square(10), nil); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestTINExactAtSamples(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	rng := rand.New(rand.NewSource(3))
	var samples []field.Sample
	for i := 0; i < 50; i++ {
		p := geom.V2(rng.Float64()*100, rng.Float64()*100)
		samples = append(samples, field.Sample{Pos: p, Z: f.Eval(p)})
	}
	tin, err := FromSamples(geom.Square(100), samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if got := tin.Eval(s.Pos); math.Abs(got-s.Z) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", s.Pos, got, s.Z)
		}
	}
	if n := len(tin.Samples()); n != 50 {
		t.Errorf("%d samples, want 50", n)
	}
}

func TestTINReproducesPlaneExactly(t *testing.T) {
	// Piecewise-linear interpolation is exact for affine fields: the
	// fundamental correctness property of DT(x, y).
	f := field.Plane(geom.Square(100), 0.5, -0.25, 3)
	samples := cornerSamples(f)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		p := geom.V2(rng.Float64()*100, rng.Float64()*100)
		samples = append(samples, field.Sample{Pos: p, Z: f.Eval(p)})
	}
	tin, err := FromSamples(geom.Square(100), samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := geom.V2(rng.Float64()*100, rng.Float64()*100)
		if got, want := tin.Eval(p), f.Eval(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("plane not reproduced at %v: %v vs %v", p, got, want)
		}
	}
}

func TestTINDuplicateKeepsFirstValue(t *testing.T) {
	tin := NewTIN(geom.Square(10))
	if err := tin.Add(field.Sample{Pos: geom.V2(5, 5), Z: 1}); err != nil {
		t.Fatal(err)
	}
	err := tin.Add(field.Sample{Pos: geom.V2(5, 5), Z: 99})
	if !errors.Is(err, delaunay.ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if got := tin.Eval(geom.V2(5, 5)); got != 1 {
		t.Errorf("value overwritten: %v", got)
	}
}

func TestTINFallbackOutsideHull(t *testing.T) {
	tin := NewTIN(geom.Square(100))
	for _, s := range []field.Sample{
		{Pos: geom.V2(40, 40), Z: 1},
		{Pos: geom.V2(60, 40), Z: 2},
		{Pos: geom.V2(50, 60), Z: 3},
	} {
		if err := tin.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := tin.Eval(geom.V2(0, 0)); got != 1 { // nearest sample is (40,40)
		t.Errorf("fallback = %v, want 1", got)
	}
	// Inside the hull the plane through the samples, not a sample value.
	if got := tin.Eval(geom.V2(50, 45)); math.Abs(got-1.875) > 1e-12 {
		t.Errorf("inside-hull Eval = %v, want 1.875", got)
	}
}

func TestTINEmptyEvalsZero(t *testing.T) {
	tin := NewTIN(geom.Square(10))
	if got := tin.Eval(geom.V2(5, 5)); got != 0 {
		t.Errorf("empty Eval = %v", got)
	}
}

func TestTINAccessors(t *testing.T) {
	f := field.Plane(geom.Square(100), 1, 0, 0)
	samples := cornerSamples(f)
	tin, err := FromSamples(geom.Square(100), samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tin.Samples()); got != 4 {
		t.Errorf("Samples len = %d", got)
	}
	if got := len(tin.Positions()); got != 4 {
		t.Errorf("Positions len = %d", got)
	}
	if got := len(tin.Triangles()); got != 2 {
		t.Errorf("Triangles len = %d", got)
	}
	if tin.Bounds() != geom.Square(100) {
		t.Errorf("Bounds = %v", tin.Bounds())
	}
}

func TestDeltaIdenticalFieldsIsZero(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	if got := Delta(f, f, 50); got != 0 {
		t.Errorf("Delta(f,f) = %v", got)
	}
}

func TestDeltaSymmetric(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	g := field.Plane(geom.Square(100), 0.01, 0.01, 0)
	if a, b := Delta(f, g, 40), Delta(g, f, 40); math.Abs(a-b) > 1e-9 {
		t.Errorf("Delta not symmetric: %v vs %v", a, b)
	}
}

func TestDeltaKnownValue(t *testing.T) {
	// |f - g| == 2 everywhere over a 10x10 region → δ = 200.
	f := field.Constant(geom.Square(10), 5)
	g := field.Constant(geom.Square(10), 3)
	if got := Delta(f, g, 20); math.Abs(got-200) > 1e-9 {
		t.Errorf("Delta = %v, want 200", got)
	}
}

func TestDeltaTriangleInequality(t *testing.T) {
	r := geom.Square(50)
	f := field.Peaks(r)
	g := field.Constant(r, 0)
	h := field.Plane(r, 0.1, -0.1, 1)
	fg := Delta(f, g, 30)
	gh := Delta(g, h, 30)
	fh := Delta(f, h, 30)
	if fh > fg+gh+1e-9 {
		t.Errorf("triangle inequality violated: %v > %v + %v", fh, fg, gh)
	}
}

func TestDeltaSamplesMoreSamplesNotWorse(t *testing.T) {
	// Adding well-placed samples should (weakly) improve δ for a smooth
	// field: refinement monotonicity in the typical case.
	f := field.Peaks(geom.Square(100))
	coarse := cornerSamples(f)
	d1, err := DeltaSamples(f, coarse, 50)
	if err != nil {
		t.Fatal(err)
	}
	fine := append([]field.Sample{}, coarse...)
	for _, p := range field.GridPositions(geom.Square(100), 4) {
		fine = append(fine, field.Sample{Pos: p, Z: f.Eval(p)})
	}
	d2, err := DeltaSamples(f, fine, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d2 > d1 {
		t.Errorf("denser sampling worsened δ: %v > %v", d2, d1)
	}
	if _, err := DeltaSamples(f, nil, 10); !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestLocalErrorGrid(t *testing.T) {
	f := field.Plane(geom.Square(100), 1, 0, 0)
	g := NewLocalErrorGrid(f, 10)
	if g.N() != 10 {
		t.Fatalf("N = %d", g.N())
	}
	if got := g.ref[g.idx(5, 3)]; got != 50 {
		t.Errorf("ref(5,3) = %v, want 50", got)
	}
	if got := g.Pos(10, 0); got != geom.V2(100, 0) {
		t.Errorf("Pos(10,0) = %v", got)
	}
	// Before any update, errors are zero.
	if _, _, e := g.ArgMax(); e != 0 {
		t.Errorf("initial max error = %v", e)
	}
	// Against an empty-ish TIN (single zero sample), error equals |ref|.
	tin := NewTIN(geom.Square(100))
	if err := tin.Add(field.Sample{Pos: geom.V2(0, 0), Z: 0}); err != nil {
		t.Fatal(err)
	}
	g.Update(tin)
	i, j, e := g.ArgMax()
	if i != 10 || e != 100 {
		t.Errorf("ArgMax = (%d,%d,%v), want i=10 err=100", i, j, e)
	}
	if g.Err(0, 0) != 0 {
		t.Errorf("Err(0,0) = %v", g.Err(0, 0))
	}
	if g.Sum() <= 0 {
		t.Errorf("Sum = %v", g.Sum())
	}
}

func TestLocalErrorGridSumApproximatesDelta(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	tin, err := FromSamples(geom.Square(100), cornerSamples(f))
	if err != nil {
		t.Fatal(err)
	}
	g := NewLocalErrorGrid(f, 100)
	g.Update(tin)
	delta := Delta(f, tin, 100)
	if math.Abs(g.Sum()-delta)/delta > 0.1 {
		t.Errorf("lattice sum %v vs δ %v differ by more than 10%%", g.Sum(), delta)
	}
}

// ArgMax returns the lattice node with the maximum local error (FRA line
// 9). Ties resolve to the smallest (i, j) in row-major order, keeping the
// algorithm deterministic. A grid with no error lattice (the zero value)
// returns the sentinel (-1, -1, 0) instead of panicking.
func (g *LocalErrorGrid) ArgMax() (i, j int, err float64) {
	if len(g.err) == 0 {
		return -1, -1, 0
	}
	best := -1
	for k, e := range g.err {
		if best == -1 || e > g.err[best] {
			best = k
		}
	}
	return best / (g.n + 1), best % (g.n + 1), g.err[best]
}
