package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrient2D(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c Vec2
		want    Orientation
	}{
		{"ccw", V2(0, 0), V2(1, 0), V2(0, 1), CounterClockwise},
		{"cw", V2(0, 0), V2(0, 1), V2(1, 0), Clockwise},
		{"collinear-x", V2(0, 0), V2(1, 0), V2(2, 0), Collinear},
		{"collinear-diag", V2(0, 0), V2(1, 1), V2(5, 5), Collinear},
		{"left-of-vertical", V2(0, 0), V2(0, 5), V2(-1, 2), CounterClockwise},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Orient2D(tc.a, tc.b, tc.c); got != tc.want {
				t.Errorf("Orient2D = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestOrient2DAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := V2(math.Mod(ax, 100), math.Mod(ay, 100))
		b := V2(math.Mod(bx, 100), math.Mod(by, 100))
		c := V2(math.Mod(cx, 100), math.Mod(cy, 100))
		if !a.IsFinite() || !b.IsFinite() || !c.IsFinite() {
			return true
		}
		// Swapping two arguments flips (or keeps collinear) the orientation.
		return Orient2D(a, b, c) == -Orient2D(b, a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInCircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0).
	a, b, c := V2(1, 0), V2(0, 1), V2(-1, 0)
	tests := []struct {
		name string
		d    Vec2
		want bool
	}{
		{"center-inside", V2(0, 0), true},
		{"near-inside", V2(0.5, 0.1), true},
		{"far-outside", V2(2, 2), false},
		{"just-outside", V2(1.01, 0), false},
		{"on-circle", V2(0, -1), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := InCircle(a, b, c, tc.d); got != tc.want {
				t.Errorf("InCircle = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestInCircleOrientationInvariant(t *testing.T) {
	// The predicate must give the same answer for CW and CCW triangles.
	a, b, c := V2(0, 0), V2(10, 0), V2(5, 8)
	inside := V2(5, 3)
	outside := V2(50, 50)
	if !InCircle(a, b, c, inside) || !InCircle(a, c, b, inside) {
		t.Error("inside point not detected for one orientation")
	}
	if InCircle(a, b, c, outside) || InCircle(a, c, b, outside) {
		t.Error("outside point detected as inside")
	}
}

func TestInCircleAgainstCircumcenter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := V2(rng.Float64()*100, rng.Float64()*100)
		b := V2(rng.Float64()*100, rng.Float64()*100)
		c := V2(rng.Float64()*100, rng.Float64()*100)
		center, ok := Circumcenter(a, b, c)
		if !ok {
			continue
		}
		r := center.Dist(a)
		d := V2(rng.Float64()*100, rng.Float64()*100)
		dist := center.Dist(d)
		// Skip numerically marginal cases near the circle boundary.
		if math.Abs(dist-r) < 1e-6*(1+r) {
			continue
		}
		want := dist < r
		if got := InCircle(a, b, c, d); got != want {
			t.Fatalf("case %d: InCircle=%v want %v (r=%v dist=%v)", i, got, want, r, dist)
		}
	}
}

func TestCircumcenter(t *testing.T) {
	center, ok := Circumcenter(V2(1, 0), V2(0, 1), V2(-1, 0))
	if !ok {
		t.Fatal("degenerate reported for valid triangle")
	}
	if !almostEqual(center.X, 0, 1e-12) || !almostEqual(center.Y, 0, 1e-12) {
		t.Errorf("center = %v, want origin", center)
	}
	if _, ok := Circumcenter(V2(0, 0), V2(1, 1), V2(2, 2)); ok {
		t.Error("collinear points should not have a circumcenter")
	}
}

func TestCircumcenterEquidistantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a := V2(rng.Float64()*50, rng.Float64()*50)
		b := V2(rng.Float64()*50, rng.Float64()*50)
		c := V2(rng.Float64()*50, rng.Float64()*50)
		center, ok := Circumcenter(a, b, c)
		if !ok {
			continue
		}
		ra, rb, rc := center.Dist(a), center.Dist(b), center.Dist(c)
		tol := 1e-7 * (1 + ra)
		if !almostEqual(ra, rb, tol) || !almostEqual(ra, rc, tol) {
			t.Fatalf("not equidistant: %v %v %v", ra, rb, rc)
		}
	}
}

func TestTriArea(t *testing.T) {
	if got := TriArea(V2(0, 0), V2(2, 0), V2(0, 2)); got != 2 {
		t.Errorf("area = %v, want 2", got)
	}
	if got := TriArea(V2(0, 0), V2(0, 2), V2(2, 0)); got != -2 {
		t.Errorf("cw area = %v, want -2", got)
	}
}

func TestBarycentric(t *testing.T) {
	a, b, c := V2(0, 0), V2(1, 0), V2(0, 1)
	tests := []struct {
		name       string
		p          Vec2
		wa, wb, wc float64
	}{
		{"vertex-a", a, 1, 0, 0},
		{"vertex-b", b, 0, 1, 0},
		{"vertex-c", c, 0, 0, 1},
		{"centroid", V2(1.0/3, 1.0/3), 1.0 / 3, 1.0 / 3, 1.0 / 3},
		{"edge-mid", V2(0.5, 0), 0.5, 0.5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			wa, wb, wc, ok := Barycentric(a, b, c, tc.p)
			if !ok {
				t.Fatal("unexpected degenerate")
			}
			if !almostEqual(wa, tc.wa, 1e-12) || !almostEqual(wb, tc.wb, 1e-12) || !almostEqual(wc, tc.wc, 1e-12) {
				t.Errorf("got (%v,%v,%v), want (%v,%v,%v)", wa, wb, wc, tc.wa, tc.wb, tc.wc)
			}
		})
	}
	if _, _, _, ok := Barycentric(V2(0, 0), V2(1, 1), V2(2, 2), V2(0, 1)); ok {
		t.Error("degenerate triangle should report !ok")
	}
}

func TestBarycentricPartitionOfUnity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, c := V2(0, 0), V2(10, 1), V2(4, 9)
	for i := 0; i < 200; i++ {
		p := V2(rng.Float64()*20-5, rng.Float64()*20-5)
		wa, wb, wc, ok := Barycentric(a, b, c, p)
		if !ok {
			t.Fatal("unexpected degenerate")
		}
		if !almostEqual(wa+wb+wc, 1, 1e-9) {
			t.Fatalf("weights sum to %v", wa+wb+wc)
		}
		// Reconstruction: wa*a + wb*b + wc*c == p.
		q := a.Scale(wa).Add(b.Scale(wb)).Add(c.Scale(wc))
		if q.Dist(p) > 1e-9 {
			t.Fatalf("reconstruction error: %v vs %v", q, p)
		}
	}
}

func TestInTriangle(t *testing.T) {
	a, b, c := V2(0, 0), V2(10, 0), V2(0, 10)
	tests := []struct {
		name string
		p    Vec2
		want bool
	}{
		{"inside", V2(2, 2), true},
		{"vertex", V2(0, 0), true},
		{"edge", V2(5, 0), true},
		{"outside", V2(6, 6), false},
		{"far", V2(-1, -1), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := InTriangle(a, b, c, tc.p); got != tc.want {
				t.Errorf("InTriangle(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name           string
		p1, p2, q1, q2 Vec2
		want           bool
	}{
		{"cross", V2(0, 0), V2(2, 2), V2(0, 2), V2(2, 0), true},
		{"parallel", V2(0, 0), V2(2, 0), V2(0, 1), V2(2, 1), false},
		{"touch-endpoint", V2(0, 0), V2(1, 1), V2(1, 1), V2(2, 0), true},
		{"collinear-overlap", V2(0, 0), V2(2, 0), V2(1, 0), V2(3, 0), true},
		{"collinear-disjoint", V2(0, 0), V2(1, 0), V2(2, 0), V2(3, 0), false},
		{"disjoint", V2(0, 0), V2(1, 0), V2(5, 5), V2(6, 6), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := SegmentsIntersect(tc.p1, tc.p2, tc.q1, tc.q2); got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// Circumcenter returns the center of the circle through a, b and c, and
// reports false when the points are (numerically) collinear.
func Circumcenter(a, b, c Vec2) (Vec2, bool) {
	d := 2 * ((a.X-c.X)*(b.Y-c.Y) - (b.X-c.X)*(a.Y-c.Y))
	if math.Abs(d) < orientEps {
		return Vec2{}, false
	}
	a2 := a.Len2() - c.Len2()
	b2 := b.Len2() - c.Len2()
	ux := (a2*(b.Y-c.Y) - b2*(a.Y-c.Y)) / d
	uy := (b2*(a.X-c.X) - a2*(b.X-c.X)) / d
	return Vec2{ux, uy}, true
}

// SegmentsIntersect reports whether segments (p1, p2) and (q1, q2)
// properly intersect or touch.
func SegmentsIntersect(p1, p2, q1, q2 Vec2) bool {
	d1 := Orient2D(q1, q2, p1)
	d2 := Orient2D(q1, q2, p2)
	d3 := Orient2D(p1, p2, q1)
	d4 := Orient2D(p1, p2, q2)
	if d1 != d2 && d3 != d4 && d1 != Collinear && d2 != Collinear &&
		d3 != Collinear && d4 != Collinear {
		return true
	}
	return (d1 == Collinear && onSegment(q1, q2, p1)) ||
		(d2 == Collinear && onSegment(q1, q2, p2)) ||
		(d3 == Collinear && onSegment(p1, p2, q1)) ||
		(d4 == Collinear && onSegment(p1, p2, q2))
}

// onSegment reports whether point p, known to be collinear with segment
// (a, b), lies within the segment's bounding box.
func onSegment(a, b, p Vec2) bool {
	return math.Min(a.X, b.X)-orientEps <= p.X && p.X <= math.Max(a.X, b.X)+orientEps &&
		math.Min(a.Y, b.Y)-orientEps <= p.Y && p.Y <= math.Max(a.Y, b.Y)+orientEps
}
