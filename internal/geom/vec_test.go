package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec2Arithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Vec2
		want Vec2
	}{
		{"add", V2(1, 2).Add(V2(3, -4)), V2(4, -2)},
		{"sub", V2(1, 2).Sub(V2(3, -4)), V2(-2, 6)},
		{"scale", V2(1.5, -2).Scale(2), V2(3, -4)},
		{"lerp-mid", V2(0, 0).Lerp(V2(2, 4), 0.5), V2(1, 2)},
		{"lerp-start", V2(1, 1).Lerp(V2(2, 4), 0), V2(1, 1)},
		{"lerp-end", V2(1, 1).Lerp(V2(2, 4), 1), V2(2, 4)},
		{"rot90", V2(1, 0).Rot90(), V2(0, 1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got != tc.want {
				t.Errorf("got %v, want %v", tc.got, tc.want)
			}
		})
	}
}

func TestVec2DotCross(t *testing.T) {
	a, b := V2(1, 2), V2(3, 4)
	if got := a.Dot(b); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := a.Cross(b); got != -2 {
		t.Errorf("Cross = %v, want -2", got)
	}
	if got := a.Cross(a); got != 0 {
		t.Errorf("self Cross = %v, want 0", got)
	}
}

func TestVec2LenDist(t *testing.T) {
	if got := V2(3, 4).Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := V2(3, 4).Len2(); got != 25 {
		t.Errorf("Len2 = %v, want 25", got)
	}
	if got := V2(1, 1).Dist(V2(4, 5)); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := V2(1, 1).Dist2(V2(4, 5)); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestVec2Normalize(t *testing.T) {
	v := V2(3, 4).Normalize()
	if !almostEqual(v.Len(), 1, 1e-12) {
		t.Errorf("normalized length = %v, want 1", v.Len())
	}
	if z := (Vec2{}).Normalize(); z != (Vec2{}) {
		t.Errorf("Normalize(0) = %v, want zero vector", z)
	}
}

func TestVec2ClampLen(t *testing.T) {
	tests := []struct {
		name    string
		v       Vec2
		max     float64
		wantLen float64
	}{
		{"shorter-unchanged", V2(1, 0), 5, 1},
		{"longer-truncated", V2(30, 40), 5, 5},
		{"exact", V2(3, 4), 5, 5},
		{"nonpositive-max", V2(3, 4), 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.v.ClampLen(tc.max)
			if !almostEqual(got.Len(), tc.wantLen, 1e-12) {
				t.Errorf("len = %v, want %v", got.Len(), tc.wantLen)
			}
			// Direction must be preserved for non-zero results.
			if got.Len() > 0 && math.Abs(got.Cross(tc.v)) > 1e-9 {
				t.Errorf("direction changed: %v vs %v", got, tc.v)
			}
		})
	}
}

func TestVec2ClampLenDirectionProperty(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		v := V2(x, y)
		c := v.ClampLen(1)
		return c.Len() <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec2IsFinite(t *testing.T) {
	if !V2(1, 2).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	for _, v := range []Vec2{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if v.IsFinite() {
			t.Errorf("%v reported finite", v)
		}
	}
}

func TestVec3Basics(t *testing.T) {
	a, b := V3(1, 2, 3), V3(4, 5, 6)
	if got := a.Add(b); got != V3(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V3(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := a.Cross(b); got != V3(-3, 6, -3) {
		t.Errorf("Cross = %v, want (-3,6,-3)", got)
	}
	if got := V3(2, 3, 6).Len(); got != 7 {
		t.Errorf("Len = %v, want 7", got)
	}
}

func TestVec3CrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V3(ax, ay, az), V3(bx, by, bz)
		if math.IsNaN(a.Len()) || math.IsInf(a.Len(), 0) ||
			math.IsNaN(b.Len()) || math.IsInf(b.Len(), 0) {
			return true
		}
		c := a.Cross(b)
		scale := a.Len() * b.Len() * (a.Len() + b.Len())
		if scale == 0 || math.IsInf(scale, 0) {
			return true
		}
		return math.Abs(c.Dot(a)) <= 1e-9*scale && math.Abs(c.Dot(b)) <= 1e-9*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec2String(t *testing.T) {
	if got := V2(1, 2).String(); got != "(1, 2)" {
		t.Errorf("String = %q", got)
	}
	if got := V3(1, 2, 3).String(); got != "(1, 2, 3)" {
		t.Errorf("String = %q", got)
	}
}

// Cross returns the z component of the 3D cross product of v and w,
// i.e. the signed area of the parallelogram they span.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Rot90 returns v rotated 90 degrees counter-clockwise.
func (v Vec2) Rot90() Vec2 { return Vec2{-v.Y, v.X} }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}
