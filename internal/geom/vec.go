// Package geom provides the planar and 3D geometric primitives that the
// rest of the repository is built on: vectors, orientation and in-circle
// predicates, bounding boxes and small utilities for working with discs
// and segments on the region plane.
//
// Conventions: the region of interest is an axis-aligned square on the X-Y
// plane; the environment value z = f(x, y) lifts points onto a virtual
// surface in R^3 (paper, Section 3.1).
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement on the region plane.
type Vec2 struct {
	X, Y float64
}

// V2 is shorthand for constructing a Vec2.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean norm of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared Euclidean norm of v.
func (v Vec2) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec2) Dist2(w Vec2) float64 { return v.Sub(w).Len2() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged so callers need not special-case balanced forces.
func (v Vec2) Normalize() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return v.Scale(1 / l)
}

// ClampLen returns v truncated to at most maxLen while preserving
// direction. Used to enforce the mobile-node velocity bound.
func (v Vec2) ClampLen(maxLen float64) Vec2 {
	if maxLen <= 0 {
		return Vec2{}
	}
	l := v.Len()
	if l <= maxLen {
		return v
	}
	return v.Scale(maxLen / l)
}

// Lerp returns the linear interpolation (1-t)·v + t·w.
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// IsFinite reports whether both coordinates are finite numbers.
func (v Vec2) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.4g, %.4g)", v.X, v.Y) }

// Vec3 is a point on the virtual surface in R^3: a plane position plus the
// sampled environment value on the Z axis.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
