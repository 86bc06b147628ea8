package field

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestConstant(t *testing.T) {
	f := Constant(geom.Square(10), 3.5)
	for _, p := range []geom.Vec2{geom.V2(0, 0), geom.V2(5, 5), geom.V2(10, 10)} {
		if got := f.Eval(p); got != 3.5 {
			t.Errorf("Eval(%v) = %v", p, got)
		}
	}
	if f.Bounds() != geom.Square(10) {
		t.Errorf("Bounds = %v", f.Bounds())
	}
}

func TestPlane(t *testing.T) {
	f := Plane(geom.Square(10), 2, -1, 5)
	tests := []struct {
		p    geom.Vec2
		want float64
	}{
		{geom.V2(0, 0), 5},
		{geom.V2(1, 0), 7},
		{geom.V2(0, 1), 4},
		{geom.V2(3, 4), 7},
	}
	for _, tc := range tests {
		if got := f.Eval(tc.p); got != tc.want {
			t.Errorf("Eval(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestQuadraticCenteredAtRegionCenter(t *testing.T) {
	f := Quadratic(geom.Square(10), 1, 0, 1)
	if got := f.Eval(geom.V2(5, 5)); got != 0 {
		t.Errorf("center value = %v, want 0", got)
	}
	if got := f.Eval(geom.V2(6, 5)); got != 1 {
		t.Errorf("unit offset = %v, want 1", got)
	}
	// Symmetry property: f(center+d) == f(center-d) for pure quadratics.
	q := func(dx, dy float64) bool {
		dx, dy = math.Mod(dx, 5), math.Mod(dy, 5)
		if math.IsNaN(dx) || math.IsNaN(dy) {
			return true
		}
		a := f.Eval(geom.V2(5+dx, 5+dy))
		b := f.Eval(geom.V2(5-dx, 5-dy))
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(q, nil); err != nil {
		t.Error(err)
	}
}

func TestPeaksKnownValues(t *testing.T) {
	// The canonical peaks surface at domain center (0,0):
	// 3·e^{-1} + 0 - ⅓·e^{-1}.
	want := 3*math.Exp(-1) - math.Exp(-1)/3
	f := Peaks(geom.Square(100))
	if got := f.Eval(geom.V2(50, 50)); math.Abs(got-want) > 1e-12 {
		t.Errorf("peaks center = %v, want %v", got, want)
	}
	// The global maximum of peaks is ≈ 8.106 near canonical (0, 1.58),
	// i.e. region ≈ (50, 76.3); check the sampled max is close.
	s := Summarize(f, 201)
	if s.Max < 7.9 || s.Max > 8.3 {
		t.Errorf("peaks max = %v, want ≈ 8.1", s.Max)
	}
	if s.Min > -6.3 || s.Min < -6.8 {
		t.Errorf("peaks min = %v, want ≈ -6.55", s.Min)
	}
}

func TestPeaksMapsRegion(t *testing.T) {
	// Corner of the region maps to corner of [-3,3]² where peaks ≈ 0.
	f := Peaks(geom.Square(100))
	if got := f.Eval(geom.V2(0, 0)); math.Abs(got) > 1e-3 {
		t.Errorf("corner value = %v, want ≈ 0", got)
	}
}

func TestSliceAndStatic(t *testing.T) {
	d := DynFunc{
		F:      func(p geom.Vec2, t float64) float64 { return p.X + t },
		Region: geom.Square(10),
	}
	s := Slice(d, 5)
	if got := s.Eval(geom.V2(2, 0)); got != 7 {
		t.Errorf("Slice Eval = %v, want 7", got)
	}
	if s.Bounds() != d.Bounds() {
		t.Error("Slice changed bounds")
	}
	st := Static(Constant(geom.Square(10), 4))
	if got := st.EvalAt(geom.V2(1, 1), 99); got != 4 {
		t.Errorf("Static EvalAt = %v, want 4", got)
	}
}

func TestMixture(t *testing.T) {
	m := &Mixture{
		Region: geom.Square(100),
		Base:   1,
		Blobs: []Blob{
			{Center: geom.V2(50, 50), Amp: 10, SigmaX: 5, SigmaY: 5},
		},
	}
	if got := m.Eval(geom.V2(50, 50)); got != 11 {
		t.Errorf("peak = %v, want 11", got)
	}
	far := m.Eval(geom.V2(0, 0))
	if math.Abs(far-1) > 1e-6 {
		t.Errorf("far value = %v, want ≈ 1", far)
	}
	// Monotone decay from the center along a ray.
	prev := m.Eval(geom.V2(50, 50))
	for r := 1.0; r < 30; r++ {
		cur := m.Eval(geom.V2(50+r, 50))
		if cur > prev {
			t.Fatalf("not decaying at r=%v: %v > %v", r, cur, prev)
		}
		prev = cur
	}
}

func TestBlobAnisotropy(t *testing.T) {
	b := Blob{Center: geom.V2(0, 0), Amp: 1, SigmaX: 10, SigmaY: 1}
	if b.Eval(geom.V2(5, 0)) <= b.Eval(geom.V2(0, 5)) {
		t.Error("wide axis should decay slower than narrow axis")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(Plane(geom.Square(10), 1, 0, 0), 11)
	if s.Min != 0 || s.Max != 10 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if s.RMS < s.Mean {
		t.Errorf("RMS %v < mean %v", s.RMS, s.Mean)
	}
	// n < 2 is clamped rather than panicking.
	_ = Summarize(Constant(geom.Square(1), 2), 0)
}

// Stats summarizes a field sampled over an n×n grid.
type Stats struct {
	// Min and Max are the extreme sampled values.
	Min, Max float64
	// Mean is the arithmetic mean of the samples.
	Mean float64
	// RMS is the root mean square of the samples.
	RMS float64
}

// Summarize samples f on an n×n grid over its bounds and returns summary
// statistics. n must be at least 2.
func Summarize(f Field, n int) Stats {
	if n < 2 {
		n = 2
	}
	r := f.Bounds()
	var s Stats
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	sum, sum2 := 0.0, 0.0
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := geom.V2(
				r.Min.X+r.Width()*float64(i)/float64(n-1),
				r.Min.Y+r.Height()*float64(j)/float64(n-1),
			)
			z := f.Eval(p)
			s.Min = math.Min(s.Min, z)
			s.Max = math.Max(s.Max, z)
			sum += z
			sum2 += z * z
			count++
		}
	}
	s.Mean = sum / float64(count)
	s.RMS = math.Sqrt(sum2 / float64(count))
	return s
}
