package geom

import "math"

// Orientation classifies the turn formed by an ordered point triple.
type Orientation int

// Possible orientations of an ordered triple (a, b, c).
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// orientEps is the tolerance under which the orientation determinant is
// treated as zero. The region coordinates in this repository are O(100),
// so determinant magnitudes of interest are far above this threshold.
const orientEps = 1e-12

// Orient2D returns the orientation of the ordered triple (a, b, c):
// CounterClockwise when c lies to the left of the directed line a→b,
// Clockwise when to the right, and Collinear when (numerically) on it.
func Orient2D(a, b, c Vec2) Orientation {
	det := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	scale := math.Abs(b.X-a.X)*math.Abs(c.Y-a.Y) + math.Abs(b.Y-a.Y)*math.Abs(c.X-a.X)
	if math.Abs(det) <= orientEps*(1+scale) {
		return Collinear
	}
	if det > 0 {
		return CounterClockwise
	}
	return Clockwise
}

// InCircle reports whether point d lies strictly inside the circumcircle of
// the counter-clockwise triangle (a, b, c). This is the Delaunay empty-
// circumcircle predicate. The caller must pass (a, b, c) in counter-
// clockwise order; for clockwise input the sign of the result is flipped
// internally so the predicate stays correct.
func InCircle(a, b, c, d Vec2) bool {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y

	ad2 := adx*adx + ady*ady
	bd2 := bdx*bdx + bdy*bdy
	cd2 := cdx*cdx + cdy*cdy

	det := adx*(bdy*cd2-cdy*bd2) -
		ady*(bdx*cd2-cdx*bd2) +
		ad2*(bdx*cdy-cdx*bdy)

	if Orient2D(a, b, c) == Clockwise {
		det = -det
	}
	// A small positive tolerance keeps cocircular grids (a worst case for
	// Bowyer-Watson) from flip-flopping on rounding noise.
	scale := (ad2 + bd2 + cd2) * (math.Abs(adx) + math.Abs(bdx) + math.Abs(cdx) +
		math.Abs(ady) + math.Abs(bdy) + math.Abs(cdy))
	return det > orientEps*(1+scale)
}

// TriArea returns the signed area of triangle (a, b, c); positive for
// counter-clockwise order.
func TriArea(a, b, c Vec2) float64 {
	return 0.5 * ((b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X))
}

// Barycentric returns the barycentric coordinates (wa, wb, wc) of point p
// with respect to triangle (a, b, c). The weights sum to 1. It reports
// false for a degenerate triangle.
func Barycentric(a, b, c, p Vec2) (wa, wb, wc float64, ok bool) {
	den := (b.Y-c.Y)*(a.X-c.X) + (c.X-b.X)*(a.Y-c.Y)
	if math.Abs(den) < orientEps {
		return 0, 0, 0, false
	}
	wa = ((b.Y-c.Y)*(p.X-c.X) + (c.X-b.X)*(p.Y-c.Y)) / den
	wb = ((c.Y-a.Y)*(p.X-c.X) + (a.X-c.X)*(p.Y-c.Y)) / den
	wc = 1 - wa - wb
	return wa, wb, wc, true
}

// InTriangle reports whether p lies inside or on the boundary of triangle
// (a, b, c), using a small tolerance on the barycentric weights.
func InTriangle(a, b, c, p Vec2) bool {
	wa, wb, wc, ok := Barycentric(a, b, c, p)
	if !ok {
		return false
	}
	const eps = 1e-9
	return wa >= -eps && wb >= -eps && wc >= -eps
}
