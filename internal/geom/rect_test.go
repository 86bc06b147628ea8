package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(V2(5, 1), V2(2, 9))
	if r.Min != V2(2, 1) || r.Max != V2(5, 9) {
		t.Errorf("got %v", r)
	}
}

func TestSquare(t *testing.T) {
	r := Square(100)
	if r.Width() != 100 || r.Height() != 100 {
		t.Errorf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 10000 {
		t.Errorf("area = %v", r.Area())
	}
	if r.Center() != V2(50, 50) {
		t.Errorf("center = %v", r.Center())
	}
}

func TestRectContains(t *testing.T) {
	r := Square(10)
	tests := []struct {
		name string
		p    Vec2
		want bool
	}{
		{"inside", V2(5, 5), true},
		{"corner", V2(0, 0), true},
		{"edge", V2(10, 5), true},
		{"outside-x", V2(11, 5), false},
		{"outside-y", V2(5, -1), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.Contains(tc.p); got != tc.want {
				t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestRectClampPoint(t *testing.T) {
	r := Square(10)
	if got := r.ClampPoint(V2(-5, 20)); got != V2(0, 10) {
		t.Errorf("clamp = %v", got)
	}
	if got := r.ClampPoint(V2(5, 5)); got != V2(5, 5) {
		t.Errorf("interior point moved: %v", got)
	}
}

func TestRectClampPointProperty(t *testing.T) {
	r := Square(100)
	f := func(x, y float64) bool {
		p := V2(x, y)
		if !p.IsFinite() {
			return true
		}
		return r.Contains(r.ClampPoint(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectExpand(t *testing.T) {
	r := Square(10).Expand(2)
	if r.Min != V2(-2, -2) || r.Max != V2(12, 12) {
		t.Errorf("expanded = %v", r)
	}
}

func TestRectCorners(t *testing.T) {
	c := Square(10).Corners()
	want := [4]Vec2{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	if c != want {
		t.Errorf("corners = %v", c)
	}
}

func TestRectDistToBorder(t *testing.T) {
	r := Square(10)
	tests := []struct {
		name string
		p    Vec2
		want float64
	}{
		{"center", V2(5, 5), 5},
		{"near-left", V2(1, 5), 1},
		{"near-top", V2(5, 9), 1},
		{"on-border", V2(0, 5), 0},
		{"outside", V2(-3, 5), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.DistToBorder(tc.p); got != tc.want {
				t.Errorf("DistToBorder(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestBoundingBox(t *testing.T) {
	if _, ok := BoundingBox(nil); ok {
		t.Error("empty input should report !ok")
	}
	r, ok := BoundingBox([]Vec2{{3, 4}, {-1, 8}, {5, 0}})
	if !ok {
		t.Fatal("unexpected !ok")
	}
	if r.Min != V2(-1, 0) || r.Max != V2(5, 8) {
		t.Errorf("bbox = %v", r)
	}
}

func TestBoundingBoxContainsAllProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		pts := make([]Vec2, 0, n)
		for i := 0; i < n; i++ {
			p := V2(xs[i], ys[i])
			if p.IsFinite() {
				pts = append(pts, p)
			}
		}
		r, ok := BoundingBox(pts)
		if !ok {
			return len(pts) == 0
		}
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectDiagonal(t *testing.T) {
	if got := Square(3).Diagonal(); !almostEqual(got, 4.242640687119285, 1e-12) {
		t.Errorf("diagonal = %v", got)
	}
}

// NewRect returns the rectangle spanned by the two corner points in any
// order.
func NewRect(a, b Vec2) Rect {
	return Rect{
		Min: Vec2{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Vec2{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Expand returns r grown by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	return Rect{
		Min: Vec2{r.Min.X - margin, r.Min.Y - margin},
		Max: Vec2{r.Max.X + margin, r.Max.Y + margin},
	}
}

// DistToBorder returns the distance from p to the nearest border of r.
// Points outside r report 0.
func (r Rect) DistToBorder(p Vec2) float64 {
	if !r.Contains(p) {
		return 0
	}
	d := math.Min(p.X-r.Min.X, r.Max.X-p.X)
	return math.Min(d, math.Min(p.Y-r.Min.Y, r.Max.Y-p.Y))
}
