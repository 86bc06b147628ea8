package strategy_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/strategy"
)

// lloydPlace runs the registered Lloyd placement over a peaks field on
// the given square region.
func lloydPlace(t *testing.T, side, rc float64, k, gridN int) ([]geom.Vec2, int) {
	t.Helper()
	placer, err := strategy.LookupPlacement("lloyd")
	if err != nil {
		t.Fatal(err)
	}
	p, err := placer.Place(field.Peaks(geom.Square(side)), strategy.PlaceOptions{K: k, Rc: rc, GridN: gridN})
	if err != nil {
		t.Fatal(err)
	}
	return p.Nodes, p.Refined
}

// lloydBrute is the O(N²·k) Lloyd placement the r-box assignment
// replaced, kept as the oracle: every round compares every lattice point
// with every node, keeps the nearest (lowest index on ties) when it lies
// within r, and moves each node to the mean of its points.
func lloydBrute(region geom.Rect, k int, rc float64, gridN int) ([]geom.Vec2, int) {
	if gridN == 0 {
		gridN = 100
	}
	nodes := field.GridLayout(region, k)
	lattice := field.GridPositions(region, gridN)
	r := strategy.LloydRangeFrac * rc
	r2 := r * r
	tol := 1e-9 * region.Width()
	tol2 := tol * tol

	cnt := make([]int, k)
	sumX := make([]float64, k)
	sumY := make([]float64, k)
	iters := 0
	for it := 0; it < strategy.LloydMaxIters; it++ {
		iters++
		for j := range cnt {
			cnt[j], sumX[j], sumY[j] = 0, 0, 0
		}
		for _, p := range lattice {
			best, bestD := 0, p.Dist2(nodes[0])
			for j := 1; j < k; j++ {
				if d := p.Dist2(nodes[j]); d < bestD {
					best, bestD = j, d
				}
			}
			if bestD <= r2 {
				cnt[best]++
				sumX[best] += p.X
				sumY[best] += p.Y
			}
		}
		maxMove2 := 0.0
		for j := range nodes {
			if cnt[j] == 0 {
				continue
			}
			c := geom.V2(sumX[j]/float64(cnt[j]), sumY[j]/float64(cnt[j]))
			if d := nodes[j].Dist2(c); d > maxMove2 {
				maxMove2 = d
			}
			nodes[j] = c
		}
		if maxMove2 <= tol2 {
			break
		}
	}
	return nodes, iters
}

// checkLloydBrute runs the registered Lloyd placement and the oracle on
// one case and demands the same nodes and round count, bit for bit.
func checkLloydBrute(t *testing.T, region geom.Rect, k int, rc float64, gridN int) {
	t.Helper()
	placer, err := strategy.LookupPlacement("lloyd")
	if err != nil {
		t.Fatal(err)
	}
	p, err := placer.Place(field.Peaks(region), strategy.PlaceOptions{K: k, Rc: rc, GridN: gridN})
	if err != nil {
		t.Fatalf("region %v k=%d rc=%g gridN=%d: %v", region, k, rc, gridN, err)
	}
	want, wantIters := lloydBrute(region, k, rc, gridN)
	if p.Refined != wantIters {
		t.Fatalf("region %v k=%d rc=%g gridN=%d: %d rounds, oracle took %d",
			region, k, rc, gridN, p.Refined, wantIters)
	}
	samePoints(t, fmt.Sprintf("region %v k=%d rc=%g gridN=%d nodes", region, k, rc, gridN), p.Nodes, want)
}

// lloydRegion builds one of the property and fuzz regions: a square, a
// non-square and an offset rectangle of about unit size, times scale.
func lloydRegion(shape int, scale float64) geom.Rect {
	var r geom.Rect
	switch shape % 3 {
	case 0:
		r = geom.Rect{Max: geom.V2(1, 1)}
	case 1:
		r = geom.Rect{Max: geom.V2(1.7, 0.6)}
	default:
		r = geom.Rect{Min: geom.V2(-2.3, 0.4), Max: geom.V2(-1.1, 1.9)}
	}
	return geom.Rect{Min: r.Min.Scale(scale), Max: r.Max.Scale(scale)}
}

// TestLloydMatchesBrute is the property test of the r-box assignment:
// over node budgets, lattice resolutions, radii from a thousandth of the
// region up to 1e300 (r² = +Inf), and square, non-square and offset
// regions at scales 1e-100, 1 and 1e100, the placement equals the
// brute-force oracle in every bit.
func TestLloydMatchesBrute(t *testing.T) {
	for _, tc := range []struct {
		k, gridN int
	}{
		{1, 0}, {1, 1}, {2, 1}, {3, 2}, {7, 2}, {5, 37}, {40, 37}, {500, 37},
		{9, 100}, {12, 0}, {500, 100},
	} {
		for _, scale := range []float64{1e-100, 1, 1e100} {
			for shape := 0; shape < 3; shape++ {
				if tc.k == 500 && tc.gridN == 100 && (scale != 1 || shape != 0) {
					continue // one full-size region keeps the oracle affordable
				}
				region := lloydRegion(shape, scale)
				for _, frac := range []float64{1e-3, 0.02, 0.1, 0.45, 3} {
					checkLloydBrute(t, region, tc.k, frac*region.Width(), tc.gridN)
				}
				checkLloydBrute(t, region, tc.k, 1e300, tc.gridN)
			}
		}
	}
	// Nodes on lattice points and r equal to a whole number of lattice
	// steps put points exactly on the r boundary, on an axis and off it
	// (6² + 8² = 10²), and exactly between two nodes.
	for _, steps := range []float64{3, 5, 10} {
		rc := steps / strategy.LloydRangeFrac
		if r := strategy.LloydRangeFrac * rc; r*r != steps*steps {
			t.Fatalf("rc=%g gives r=%g, not exactly %g lattice steps", rc, r, steps)
		}
		for _, k := range []int{1, 4, 25} {
			checkLloydBrute(t, lloydRegion(0, 100), k, rc, 100)
		}
	}
}

// FuzzLloydPlace fuzzes the r-box assignment against the brute-force
// oracle over node budget, lattice resolution, radius, region shape and
// scale. The budget is capped so one run of the oracle stays about 2M
// distance evaluations per round.
func FuzzLloydPlace(f *testing.F) {
	f.Add(uint16(40), uint8(3), 0.3, uint8(0))
	f.Add(uint16(1), uint8(1), 0.0, uint8(1))
	f.Add(uint16(499), uint8(2), 0.9, uint8(6))
	f.Add(uint16(120), uint8(4), 0.5, uint8(17))
	f.Add(uint16(7), uint8(0), 0.1, uint8(10))
	f.Fuzz(func(t *testing.T, kRaw uint16, gridSel uint8, rcT float64, shape uint8) {
		gridN := []int{0, 1, 2, 37, 100}[gridSel%5]
		side := gridN + 1
		if gridN == 0 {
			side = 101
		}
		k := 1 + int(kRaw)%min(500, 2_000_000/(side*side))
		scale := []float64{1, 1e-100, 1e100}[int(shape/3)%3]
		region := lloydRegion(int(shape), scale)
		// rcT in [0, 1) spans Rc from 1e-3 to 1e2 region widths; the
		// top shape bit asks for Rc = 1e300 instead.
		rcT = math.Abs(math.Mod(rcT, 1))
		if math.IsNaN(rcT) {
			rcT = 0
		}
		rc := region.Width() * math.Pow(10, -3+5*rcT)
		if shape&0x80 != 0 {
			rc = 1e300
		}
		checkLloydBrute(t, region, k, rc, gridN)
	})
}

// TestLloydScaleEquivariant is the metamorphic test for the Lloyd
// placement: scaling the region and Rc by a power of two scales the
// converged placement by exactly the same factor, bit for bit. Every
// operation in the relaxation — lattice construction, squared-distance
// comparisons, the cell means, the relative stopping rule — commutes
// exactly with multiplication by a power of two, so this is an equality
// on Float64bits, not an approximation.
func TestLloydScaleEquivariant(t *testing.T) {
	const (
		side, rc = 96.0, 12.0
		k, gridN = 40, 48
	)
	base, baseIters := lloydPlace(t, side, rc, k, gridN)
	for _, s := range []float64{2, 4, 0.5} {
		scaled, iters := lloydPlace(t, s*side, s*rc, k, gridN)
		if iters != baseIters {
			t.Fatalf("scale %g: %d relaxation rounds, base took %d", s, iters, baseIters)
		}
		if len(scaled) != len(base) {
			t.Fatalf("scale %g: %d nodes, base has %d", s, len(scaled), len(base))
		}
		for i := range base {
			wx, wy := s*base[i].X, s*base[i].Y
			if math.Float64bits(scaled[i].X) != math.Float64bits(wx) ||
				math.Float64bits(scaled[i].Y) != math.Float64bits(wy) {
				t.Fatalf("scale %g node %d: %v, want exactly %v", s, i, scaled[i], geom.V2(wx, wy))
			}
		}
	}
}

// TestLloydMovementDeterministic runs the Lloyd movement twice through
// the full engine and demands bit-identical trajectories — the same
// determinism contract CMA carries.
func TestLloydMovementDeterministic(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	init := field.GridLayout(forest.Bounds(), 25)
	run := func() *engine.Engine {
		opts := engine.DefaultOptions()
		opts.NewController = strategy.MovementFor("lloyd").NewController
		w, err := engine.New(forest, init, opts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := run(), run()
	for s := 0; s < 3; s++ {
		if _, err := a.Step(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if _, err := b.Step(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		samePoints(t, "positions", b.Positions(), a.Positions())
	}
}

// FuzzLloydCentroid fuzzes the locality lemma against a brute-force
// oracle: with r = 0.499·Rc, the local cell centroid computed from only
// the neighbors within Rc must be bit-identical to the one computed
// against every other node in the swarm. A node beyond Rc can never
// claim a lattice point within r of pos (it would need to be within
// 2r < Rc), so restricting to Rc-neighbors must not change a single bit
// — this is what makes the descent a strictly local algorithm.
func FuzzLloydCentroid(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(123456789))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		region := geom.Square(100)
		n := 2 + rng.Intn(30)
		nodes := make([]geom.Vec2, n)
		for i := range nodes {
			nodes[i] = geom.V2(100*rng.Float64(), 100*rng.Float64())
		}
		rc := 5 + 25*rng.Float64()
		r := 0.499 * rc
		pos := nodes[0]

		all := nodes[1:]
		var near []geom.Vec2
		for _, nb := range all {
			if pos.Dist2(nb) <= rc*rc {
				near = append(near, nb)
			}
		}

		local, okL := strategy.LloydLocalCentroid(pos, near, r, region)
		oracle, okO := strategy.LloydLocalCentroid(pos, all, r, region)
		if okL != okO {
			t.Fatalf("seed %d: mass disagreement: local ok=%v, oracle ok=%v", seed, okL, okO)
		}
		if math.Float64bits(local.X) != math.Float64bits(oracle.X) ||
			math.Float64bits(local.Y) != math.Float64bits(oracle.Y) {
			t.Fatalf("seed %d: centroid from %d Rc-neighbors %v differs from oracle over %d nodes %v",
				seed, len(near), local, len(all), oracle)
		}
	})
}
