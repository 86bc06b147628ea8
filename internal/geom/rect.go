package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle, used for the region of interest A and
// for bounding boxes. Min is the lower-left corner and Max the upper-right.
type Rect struct {
	Min, Max Vec2
}

// Square returns the side×side region with its lower-left corner at the
// origin — the canonical region of interest in the paper's evaluation
// (100 × 100 m²).
func Square(side float64) Rect {
	return Rect{Max: Vec2{side, side}}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's midpoint.
func (r Rect) Center() Vec2 {
	return Vec2{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ClampPoint returns p moved to the nearest point inside r.
func (r Rect) ClampPoint(p Vec2) Vec2 {
	return Vec2{clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y)}
}

// Corners returns the four corner points in counter-clockwise order
// starting from Min.
func (r Rect) Corners() [4]Vec2 {
	return [4]Vec2{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// Diagonal returns the length of the rectangle's diagonal.
func (r Rect) Diagonal() float64 { return r.Min.Dist(r.Max) }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

// BoundingBox returns the smallest Rect containing all points. It reports
// false for an empty input.
func BoundingBox(pts []Vec2) (Rect, bool) {
	if len(pts) == 0 {
		return Rect{}, false
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r, true
}
