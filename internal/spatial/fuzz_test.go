package spatial

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
)

// FuzzSpatialIndex checks the grid hash against the brute-force oracle it
// exists to accelerate: for arbitrary point sets, cell sizes, query points
// and radii, Within must return exactly the indices a linear scan finds
// (ascending, duplicates-free), and Pairs must enumerate exactly the
// unordered pairs at distance ≤ r. Both comparisons use the same dist² ≤ r²
// expression as the implementation so boundary points cannot diverge on
// floating-point grounds. The same index is then Reset onto a second point
// set and must match a freshly built one exactly.
func FuzzSpatialIndex(f *testing.F) {
	mk := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// cell, query x/y, radius, then point coordinates.
	f.Add(mk(10, 50, 50, 25, 0, 0, 100, 100, 50, 50, 50.1, 49.9))
	f.Add(mk(1, 0, 0, 0, 0, 0))            // zero radius, query on a point
	f.Add(mk(500, -3, 7, 1e6, 1, 2, 3, 4)) // cell ≫ extent, radius ≫ extent
	f.Add(mk(0.25, 9, 9, 3))               // empty point set

	f.Fuzz(func(t *testing.T, data []byte) {
		vals := decodeFloats(data, 1e6)
		if len(vals) < 4 {
			return
		}
		// Normalize into the index's practical domain: the grid allocates
		// (extent/cell)² buckets and Pairs scans (r/cell)² neighbor offsets,
		// so coordinates are folded into (-200, 200), the cell into [1, 50)
		// and the radius into [0, 250) — still wide enough to exercise
		// multi-bucket spans, clamping at the borders and degenerate
		// single-cell grids, without admitting inputs whose cost is
		// unbounded by construction.
		cell := 1 + math.Mod(math.Abs(vals[0]), 49)
		q := geom.V2(math.Mod(vals[1], 200), math.Mod(vals[2], 200))
		r := math.Mod(math.Abs(vals[3]), 250)
		vals = vals[4:]
		pts := make([]geom.Vec2, 0, len(vals)/2)
		for i := 0; i+1 < len(vals) && len(pts) < 64; i += 2 {
			pts = append(pts, geom.V2(math.Mod(vals[i], 200), math.Mod(vals[i+1], 200)))
		}

		idx, err := NewIndex(pts, cell)
		if err != nil {
			t.Fatalf("NewIndex(%d pts, cell=%v): %v", len(pts), cell, err)
		}

		// Within vs linear scan.
		got := idx.Within(nil, q, r)
		r2 := r * r
		var want []int
		for i, p := range pts {
			if q.Dist2(p) <= r2 {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Within(q=%v, r=%v): got %v, want %v (cell=%v, pts=%v)", q, r, got, want, cell, pts)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Within(q=%v, r=%v): got %v, want %v (cell=%v, pts=%v)", q, r, got, want, cell, pts)
			}
		}

		// Pairs vs the quadratic oracle.
		type pair [2]int
		gotPairs := map[pair]int{}
		idx.Pairs(r, func(i, j int) {
			if i >= j {
				t.Fatalf("Pairs emitted non-canonical pair (%d, %d)", i, j)
			}
			gotPairs[pair{i, j}]++
		})
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				in := pts[i].Dist2(pts[j]) <= r2
				switch n := gotPairs[pair{i, j}]; {
				case in && n != 1:
					t.Fatalf("Pairs(r=%v): pair (%d, %d) emitted %d times, want 1 (cell=%v, pts=%v)", r, i, j, n, cell, pts)
				case !in && n != 0:
					t.Fatalf("Pairs(r=%v): spurious pair (%d, %d) (cell=%v, pts=%v)", r, i, j, cell, pts)
				}
				delete(gotPairs, pair{i, j})
			}
		}
		if len(gotPairs) != 0 {
			t.Fatalf("Pairs(r=%v): emitted out-of-range indices: %v", r, gotPairs)
		}

		// Reset onto a second point set of a different size must answer
		// exactly like a fresh index over that set: the same Within result
		// and the same Pairs callback sequence.
		pts2 := tailPoints(vals, len(pts))
		idx.Reset(pts2)
		fresh, err := NewIndex(pts2, cell)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := idx.Within(nil, q, r), fresh.Within(nil, q, r); !slices.Equal(got, want) {
			t.Fatalf("Within after Reset(%d pts): got %v, fresh %v (cell=%v)", len(pts2), got, want, cell)
		}
		if got, want := pairSeq(idx, r), pairSeq(fresh, r); !slices.Equal(got, want) {
			t.Fatalf("Pairs after Reset(%d pts): got %v, fresh %v (cell=%v)", len(pts2), got, want, cell)
		}
	})
}

// pairSeq returns the exact sequence of Pairs(r) callbacks.
func pairSeq(idx *Index, r float64) [][2]int {
	var seq [][2]int
	idx.Pairs(r, func(i, j int) { seq = append(seq, [2]int{i, j}) })
	return seq
}

// tailPoints builds a second point set from the fuzz input's tail, read
// backwards and cycled: n+1 ... 2n+1 points for small first sets, a third
// as many for large ones, so Reset onto it both grows and shrinks the
// index across inputs.
func tailPoints(vals []float64, n int) []geom.Vec2 {
	if len(vals) == 0 {
		return nil
	}
	m := 2*n + 1
	if n >= 32 {
		m = n / 3
	}
	pts := make([]geom.Vec2, m)
	for k := range pts {
		x := vals[len(vals)-1-(2*k)%len(vals)]
		y := vals[len(vals)-1-(2*k+1)%len(vals)]
		pts[k] = geom.V2(math.Mod(x, 200), math.Mod(y, 200))
	}
	return pts
}

// decodeFloats splits data into 8-byte little-endian float64s, dropping
// non-finite values and any with magnitude above limit.
func decodeFloats(data []byte, limit float64) []float64 {
	vals := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > limit {
			continue
		}
		vals = append(vals, v)
	}
	return vals
}
