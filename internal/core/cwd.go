package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/graph"
)

// CWDOptions configures the computation of a curvature-weighted
// distribution when global information is available (paper Section 5.1 —
// the target pattern that the distributed CMA converges to).
type CWDOptions struct {
	// K is the number of nodes.
	K int
	// Rc is the communication radius used by the CWD score and the
	// distance-control requirement.
	Rc float64
	// Rs is the sensing radius for curvature estimation.
	Rs float64
	// GridN is the curvature-map lattice resolution; 0 defaults to 50.
	GridN int
	// Iterations is the number of density-weighted Lloyd relaxation
	// rounds; 0 defaults to 30.
	Iterations int
	// Seed drives the initial weighted sampling.
	Seed int64
}

// DefaultCWDOptions mirrors the paper's Fig. 3 setting: 16 nodes with
// Rc = 30 on the Peaks(100) region.
func DefaultCWDOptions(k int) CWDOptions {
	return CWDOptions{K: k, Rc: 30, Rs: 5, GridN: 50, Iterations: 30, Seed: 1}
}

// CWDPlacement computes a curvature-weighted distribution of k nodes over
// the field: node density follows |G| (Gaussian curvature magnitude), so
// nodes crowd the information-rich folds of the surface while a floor
// density keeps the flat areas and the region border covered (the paper's
// second requirement: nodes' ranges must reach the region borders).
//
// The optimization is density-weighted Lloyd relaxation (a weighted
// centroidal Voronoi tessellation): the paper specifies the CWD pattern by
// its balance conditions (Eqns 9–10) rather than by an algorithm, and the
// weighted CVT is the standard constructive realization of exactly that
// density-balance condition.
func CWDPlacement(f field.Field, opts CWDOptions) (Placement, error) {
	if opts.K <= 0 {
		return Placement{}, fmt.Errorf("%w: k=%d", ErrBadParams, opts.K)
	}
	gridN := opts.GridN
	if gridN == 0 {
		gridN = 50
	}
	iters := opts.Iterations
	if iters == 0 {
		iters = 30
	}
	if opts.Rs <= 0 {
		return Placement{}, fmt.Errorf("%w: rs=%v", ErrBadParams, opts.Rs)
	}
	cmap, err := curvature.Map(f, gridN, opts.Rs, curvature.QR)
	if err != nil {
		return Placement{}, fmt.Errorf("core: curvature map: %w", err)
	}
	region := f.Bounds()

	// Density = |G| + floor. The floor guarantees nonzero mass everywhere
	// so flat regions still attract some nodes (border coverage).
	_, maxG := cmap.Max()
	floor := 0.05 * maxG
	if maxG == 0 {
		floor = 1
	}
	density := func(p geom.Vec2) float64 { return cmap.Eval(p) + floor }

	// Initial positions: weighted sampling of lattice cells by density.
	cells := field.GridPositions(region, gridN)
	weights := make([]float64, len(cells))
	total := 0.0
	for i, p := range cells {
		weights[i] = density(p)
		total += weights[i]
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	nodes := make([]geom.Vec2, opts.K)
	for i := range nodes {
		r := rng.Float64() * total
		acc := 0.0
		idx := len(cells) - 1
		for j, w := range weights {
			acc += w
			if acc >= r {
				idx = j
				break
			}
		}
		// Jitter within the cell to avoid exact collisions.
		cell := region.Width() / float64(gridN)
		nodes[i] = region.ClampPoint(cells[idx].Add(geom.V2(
			(rng.Float64()-0.5)*cell, (rng.Float64()-0.5)*cell)))
	}

	// Weighted Lloyd relaxation: assign lattice cells to nearest node,
	// move each node to the density-weighted centroid of its cell set.
	for it := 0; it < iters; it++ {
		sumX := make([]float64, opts.K)
		sumY := make([]float64, opts.K)
		sumW := make([]float64, opts.K)
		for i, p := range cells {
			best, bestD := 0, p.Dist2(nodes[0])
			for j := 1; j < opts.K; j++ {
				if d := p.Dist2(nodes[j]); d < bestD {
					best, bestD = j, d
				}
			}
			w := weights[i]
			sumX[best] += w * p.X
			sumY[best] += w * p.Y
			sumW[best] += w
		}
		for j := range nodes {
			if sumW[j] > 0 {
				// The quotient can round one ulp past the edge when all
				// the weight sits on a border column; clamp like every
				// other placement.
				nodes[j] = region.ClampPoint(geom.V2(sumX[j]/sumW[j], sumY[j]/sumW[j]))
			}
		}
	}
	return Placement{Nodes: nodes, Refined: opts.K}, nil
}

// CWDScore quantifies how well a node set realizes the CWD pattern.
type CWDScore struct {
	// TotalCurvature is Σ G(n_i) over the node positions — the quantity
	// the paper maximizes in Eqn 10.
	TotalCurvature float64
	// BalanceResidual is the mean magnitude of the per-node curvature-
	// weighted neighbor imbalance Σ d(ni,nj)·G(nj) — zero at a perfect
	// balance pivot (Eqn 9).
	BalanceResidual float64
	// BorderCovered reports whether some node's communication range
	// reaches every border of the region (the paper's second
	// requirement).
	BorderCovered bool
}

// ScoreCWD evaluates the paper's three CWD requirements for the node set
// at communication radius rc, using curvature estimates from local discs
// of radius rs on field f.
func ScoreCWD(f field.Field, nodes []geom.Vec2, rc, rs float64) (CWDScore, error) {
	if len(nodes) == 0 {
		return CWDScore{}, fmt.Errorf("%w: no nodes", ErrBadParams)
	}
	if rc <= 0 || rs <= 0 {
		return CWDScore{}, fmt.Errorf("%w: rc=%v rs=%v", ErrBadParams, rc, rs)
	}
	sampler := field.NewSampler(0, 1)
	fitter := curvature.NewFitter(curvature.QR)
	curv := make([]float64, len(nodes))
	for i, p := range nodes {
		est, err := fitter.Fit(p, sampler.Disc(f, p, rs))
		if err != nil {
			return CWDScore{}, fmt.Errorf("core: score node %d: %w", i, err)
		}
		curv[i] = est.AbsGaussian()
	}
	var score CWDScore
	g := graph.NewUnitDisk(nodes, rc)
	residual := 0.0
	for i, p := range nodes {
		score.TotalCurvature += curv[i]
		var imbalance geom.Vec2
		for _, j := range g.Neighbors(i) {
			imbalance = imbalance.Add(nodes[j].Sub(p).Scale(curv[j]))
		}
		residual += imbalance.Len()
	}
	score.BalanceResidual = residual / float64(len(nodes))
	score.BorderCovered = bordersCovered(f.Bounds(), nodes, rc)
	return score, nil
}

// bordersCovered reports whether each of the four region borders is within
// communication range of at least one node.
func bordersCovered(r geom.Rect, nodes []geom.Vec2, rc float64) bool {
	west, east, south, north := false, false, false, false
	for _, p := range nodes {
		if p.X-r.Min.X <= rc {
			west = true
		}
		if r.Max.X-p.X <= rc {
			east = true
		}
		if p.Y-r.Min.Y <= rc {
			south = true
		}
		if r.Max.Y-p.Y <= rc {
			north = true
		}
	}
	return west && east && south && north
}

// MeanNearestNeighborDist returns the mean distance from each node to its
// nearest other node — a density statistic used when comparing uniform and
// curvature-weighted topologies in Fig. 3.
func MeanNearestNeighborDist(nodes []geom.Vec2) float64 {
	if len(nodes) < 2 {
		return 0
	}
	sum := 0.0
	for i, p := range nodes {
		best := math.Inf(1)
		for j, q := range nodes {
			if i == j {
				continue
			}
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(nodes))
}
