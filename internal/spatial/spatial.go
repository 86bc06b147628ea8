// Package spatial provides a uniform-grid spatial hash for fixed-radius
// neighbor queries on the region plane. Building the unit-disk
// communication graph is quadratic in the node count when done naively;
// the paper's evaluations stay at k ≤ 200 where that is fine, but the
// library also targets larger swarms, where bucketing by cells of the
// query radius makes graph construction and sensing-range queries
// near-linear.
package spatial

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Index is a uniform-grid spatial hash over a point set. Build one with
// NewIndex and re-point it at a new point set with Reset; it is safe for
// concurrent reads, but Reset must not run concurrently with them.
//
// The buckets are stored as CSR arrays: bucket c lists the indices
// order[start[c]:start[c+1]], in ascending point order.
type Index struct {
	pts   []geom.Vec2
	cell  float64
	minX  float64
	minY  float64
	cols  int
	rows  int
	start []int32
	order []int32
}

// NewIndex builds an index over pts with the given cell size (typically
// the dominant query radius). cellSize must be positive and finite.
func NewIndex(pts []geom.Vec2, cellSize float64) (*Index, error) {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("spatial: invalid cell size %v", cellSize)
	}
	idx := &Index{cell: cellSize}
	idx.Reset(pts)
	return idx, nil
}

// Reset re-indexes the index over pts (copied) at its cell size, with the
// grid anchored at the new bounding box. It reuses the index's storage and
// allocates only when the point count or the cell count outgrows every
// earlier one. The result answers every query exactly like NewIndex(pts).
func (x *Index) Reset(pts []geom.Vec2) {
	x.pts = append(x.pts[:0], pts...)
	x.minX, x.minY, x.cols, x.rows = 0, 0, 1, 1
	if len(pts) > 0 {
		bb, _ := geom.BoundingBox(pts)
		x.minX, x.minY = bb.Min.X, bb.Min.Y
		x.cols = int(bb.Width()/x.cell) + 1
		x.rows = int(bb.Height()/x.cell) + 1
	}
	cells := x.cols * x.rows
	x.start = slices.Grow(x.start[:0], cells+1)[:cells+1]
	x.order = slices.Grow(x.order[:0], len(pts))[:len(pts)]
	// Counting sort: count each bucket into start[c+1], prefix-sum into
	// bucket starts, then place the points in ascending order, advancing
	// start[c] to the end of bucket c, and shift the ends back by one.
	clear(x.start)
	for _, p := range x.pts {
		x.start[x.cellOf(p)+1]++
	}
	for c := 1; c <= cells; c++ {
		x.start[c] += x.start[c-1]
	}
	for i, p := range x.pts {
		c := x.cellOf(p)
		x.order[x.start[c]] = int32(i)
		x.start[c]++
	}
	copy(x.start[1:], x.start[:cells])
	x.start[0] = 0
}

// bucket returns the indices of the points in cell c, ascending.
func (x *Index) bucket(c int) []int32 { return x.order[x.start[c]:x.start[c+1]] }

func (x *Index) cellOf(p geom.Vec2) int {
	ci := clampInt(int((p.X-x.minX)/x.cell), 0, x.cols-1)
	cj := clampInt(int((p.Y-x.minY)/x.cell), 0, x.rows-1)
	return cj*x.cols + ci
}

// Within appends to dst the indices of all points within radius r of q
// (inclusive), in ascending index order, and returns the extended slice.
// Passing dst[:0] avoids allocation across calls.
func (x *Index) Within(dst []int, q geom.Vec2, r float64) []int {
	if r < 0 || len(x.pts) == 0 {
		return dst
	}
	r2 := r * r
	loI := clampInt(int((q.X-r-x.minX)/x.cell), 0, x.cols-1)
	hiI := clampInt(int((q.X+r-x.minX)/x.cell), 0, x.cols-1)
	loJ := clampInt(int((q.Y-r-x.minY)/x.cell), 0, x.rows-1)
	hiJ := clampInt(int((q.Y+r-x.minY)/x.cell), 0, x.rows-1)
	start := len(dst)
	for cj := loJ; cj <= hiJ; cj++ {
		for ci := loI; ci <= hiI; ci++ {
			for _, i := range x.bucket(cj*x.cols + ci) {
				if x.pts[i].Dist2(q) <= r2 {
					dst = append(dst, int(i))
				}
			}
		}
	}
	insertionSortInts(dst[start:])
	return dst
}

// Pairs calls fn for every unordered pair (i, j), i < j, of indexed points
// at distance ≤ r. This is the unit-disk-graph edge enumeration.
func (x *Index) Pairs(r float64, fn func(i, j int)) {
	if r < 0 {
		return
	}
	r2 := r * r
	span := int(r/x.cell) + 1
	for cj := 0; cj < x.rows; cj++ {
		for ci := 0; ci < x.cols; ci++ {
			home := x.bucket(cj*x.cols + ci)
			if len(home) == 0 {
				continue
			}
			// Within the home bucket.
			for a := 0; a < len(home); a++ {
				for b := a + 1; b < len(home); b++ {
					i, j := int(home[a]), int(home[b])
					if x.pts[i].Dist2(x.pts[j]) <= r2 {
						fn(min(i, j), max(i, j))
					}
				}
			}
			// Against strictly "later" buckets only, so each bucket pair is
			// visited once.
			for dj := 0; dj <= span; dj++ {
				diLo := -span
				if dj == 0 {
					diLo = 1
				}
				for di := diLo; di <= span; di++ {
					nj, ni := cj+dj, ci+di
					if ni < 0 || ni >= x.cols || nj >= x.rows {
						continue
					}
					other := x.bucket(nj*x.cols + ni)
					for _, a := range home {
						for _, b := range other {
							i, j := int(a), int(b)
							if x.pts[i].Dist2(x.pts[j]) <= r2 {
								fn(min(i, j), max(i, j))
							}
						}
					}
				}
			}
		}
	}
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
