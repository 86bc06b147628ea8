package strategy

import (
	"sort"

	"repro/internal/core"
	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
)

// Lloyd / centroidal-Voronoi coverage descent with limited-range
// interactions, after Cortés, Martínez and Bullo ("Spatially-distributed
// coverage optimization and control with limited-range interactions"):
// each node's working cell is the intersection of its Voronoi cell with a
// disc of radius r strictly under Rc/2, which makes the cell — and hence
// the descent — computable from Rc-neighbors alone. Moving every node to
// its cell centroid descends the coverage cost Σ ∫cell |q − p|² dq.
//
// The strategy registers twice: as the placement "lloyd" (iterate the
// centroid map to a fixed point — a centroidal Voronoi tessellation) and
// as the movement "lloyd" (one descent step per slot, velocity-limited,
// running inside the engine's Plan stage like CMA does).

const (
	// lloydRangeFrac sets the limited interaction range as a fraction of
	// Rc: r = lloydRangeFrac·Rc. The locality lemma needs 2r ≤ Rc — any
	// point within r of node i but at least as close to some node j
	// implies d(i,j) ≤ 2r — and the margin below ½ keeps the lemma true
	// under floating-point rounding of squared distances at the boundary,
	// so a cell computed from Rc-neighbors is bit-identical to one
	// computed against the whole swarm (FuzzLloydCentroid checks exactly
	// this against a brute-force oracle).
	lloydRangeFrac = 0.499
	// lloydMaxIters bounds the placement's relaxation; convergence to the
	// relative tolerance typically needs far fewer rounds.
	lloydMaxIters = 200
	// lloydStopFrac is the movement deadband: a node whose centroid
	// offset is below lloydStopFrac·r parks. Relative to r so the
	// dynamics are scale-equivariant.
	lloydStopFrac = 0.02
	// lloydCellM is the local-cell lattice half-resolution: the movement
	// controller integrates its cell over a (2m+1)² point lattice spanning
	// the [−r, r]² square around the node.
	lloydCellM = 8
)

func init() {
	RegisterPlacement(placementFunc{"lloyd", placeLloyd})
	RegisterMovement(movementFunc{"lloyd", newLloydController})
}

// placeLloyd computes a limited-range centroidal Voronoi tessellation:
// from the deterministic grid layout, repeatedly assign every lattice
// point to its nearest node (lowest index on ties), keep the points
// within r of that node, and move each node to the mean of its points,
// until the largest per-round move falls below a relative tolerance.
//
// The assignment visits, for each node, only the lattice points of its
// own r-box. A point kept by the nearest-node rule lies within r of its
// nearest node, so that node's box holds it; and every node tied at the
// minimum distance lies within r too and visits it. Visiting nodes in
// ascending order and taking a point only when it has no owner yet or
// the node is strictly closer than the owner therefore yields the same
// argmin and the same lowest-index tie as comparing the point with every
// node, and a point no node claims within r is one the full scan drops.
// The box is exact, not padded: the lattice coordinates ascend with their
// index, so the indices whose squared axis offset is at most r² form one
// run, which a binary search finds; r² = +Inf yields the whole lattice.
// The cell sums then run over the lattice in GridPositions order, the
// order the full scan adds in, so every placement is bit-identical to
// it. A round costs O(k·(r/h)² + N²) for lattice spacing h, not O(N²·k).
//
// Unlike CWD's |G|-weighted relaxation this is the pure coverage
// objective (density 1): the field's values never enter, only its
// bounds. Every operation — lattice construction, squared-distance
// comparisons, mean — commutes exactly with scaling region and Rc by a
// power of two, so a converged placement is exactly equivariant under
// such scalings (the metamorphic test pins this).
func placeLloyd(f field.Field, o PlaceOptions) (core.Placement, error) {
	if err := validatePlace(o); err != nil {
		return core.Placement{}, err
	}
	n := o.GridN
	if n == 0 {
		n = 100
	}
	region := f.Bounds()
	nodes := field.GridLayout(region, o.K)
	// One float buffer holds the lattice's axis coordinates, xs and ys,
	// and dist, each lattice point's squared distance to its owner. The
	// coordinates use GridPositions' own expression, so every point is
	// bit-identical to its lattice point.
	buf := make([]float64, 2*(n+1)+(n+1)*(n+1))
	xs, ys, dist := buf[:n+1], buf[n+1:2*(n+1)], buf[2*(n+1):]
	for i := range xs {
		xs[i] = region.Min.X + region.Width()*float64(i)/float64(n)
		ys[i] = region.Min.Y + region.Height()*float64(i)/float64(n)
	}
	r := lloydRangeFrac * o.Rc
	r2 := r * r
	// Relative convergence tolerance: exact under power-of-two scaling
	// because both sides of the comparison scale by s².
	tol := 1e-9 * region.Width()
	tol2 := tol * tol

	// owner[i*(n+1)+j] is the node that holds lattice point (xs[i], ys[j])
	// this round, −1 for none, and dist[i*(n+1)+j] its squared distance;
	// the accumulation pass resets owner. int32 halves the buffer, and k
	// stays far below 2³¹ at any size whose nodes fit in memory.
	owner := make([]int32, (n+1)*(n+1))
	for i := range owner {
		owner[i] = -1
	}
	cells := make([]lloydCell, o.K)
	iters := 0
	for it := 0; it < lloydMaxIters; it++ {
		iters++
		for j, nd := range nodes {
			ilo, ihi := lloydSpan(xs, nd.X, r2)
			jlo, jhi := lloydSpan(ys, nd.Y, r2)
			for i := ilo; i <= ihi; i++ {
				row, rowD := owner[i*(n+1):], dist[i*(n+1):]
				for jj := jlo; jj <= jhi; jj++ {
					d := geom.V2(xs[i], ys[jj]).Dist2(nd)
					if d <= r2 && (row[jj] < 0 || d < rowD[jj]) {
						row[jj], rowD[jj] = int32(j), d
					}
				}
			}
		}
		for i, x := range xs {
			row := owner[i*(n+1) : (i+1)*(n+1)]
			for jj, cur := range row {
				if cur < 0 {
					continue
				}
				c := &cells[cur]
				c.n++
				c.sumX += x
				c.sumY += ys[jj]
				row[jj] = -1
			}
		}
		maxMove2 := 0.0
		for j := range nodes {
			c := cells[j]
			cells[j] = lloydCell{}
			if c.n == 0 {
				continue // empty cell: the node holds position
			}
			cen := geom.V2(c.sumX/float64(c.n), c.sumY/float64(c.n))
			if d := nodes[j].Dist2(cen); d > maxMove2 {
				maxMove2 = d
			}
			nodes[j] = cen
		}
		if maxMove2 <= tol2 {
			break
		}
	}
	return core.Placement{
		Nodes:   nodes,
		Refined: iters, // bookkeeping: relaxation rounds to convergence
		Anchors: cornerAnchors(region),
	}, nil
}

// lloydCell accumulates one node's lattice points in a relaxation round.
type lloydCell struct {
	n          int
	sumX, sumY float64
}

// lloydSpan returns the index run [lo, hi] of the ascending coordinates
// cs whose squared offset from c is at most r2, computed as Dist2 computes
// it; lo > hi when the run is empty. A point with Dist2 ≤ r2 has both axis
// offsets in their runs, because rounding is monotone: fl(dx²+dy²) ≥
// fl(dx²).
func lloydSpan(cs []float64, c, r2 float64) (lo, hi int) {
	lo = sort.Search(len(cs), func(i int) bool {
		d := cs[i] - c
		return d >= 0 || d*d <= r2
	})
	hi = sort.Search(len(cs), func(i int) bool {
		d := cs[i] - c
		return d > 0 && d*d > r2
	}) - 1
	return lo, hi
}

// LloydLocalCentroid integrates the r-limited local Voronoi cell of pos —
// the points q with |q − pos| ≤ r, inside region, and no neighbor
// strictly closer than pos — over a fixed (2·lloydCellM+1)² lattice
// spanning [−r, r]², and returns the cell centroid. ok is false when the
// cell has no lattice mass (the node is crowded out).
//
// Exported for the fuzz oracle: with r = lloydRangeFrac·Rc, the result
// computed from only the neighbors within Rc is bit-identical to the
// result computed against every other node in the swarm, which is what
// makes the descent a strictly local algorithm.
func LloydLocalCentroid(pos geom.Vec2, neighbors []geom.Vec2, r float64, region geom.Rect) (geom.Vec2, bool) {
	step := r / lloydCellM
	r2 := r * r
	var sx, sy float64
	n := 0
	for i := -lloydCellM; i <= lloydCellM; i++ {
		for j := -lloydCellM; j <= lloydCellM; j++ {
			q := geom.V2(pos.X+float64(i)*step, pos.Y+float64(j)*step)
			if !region.Contains(q) {
				continue
			}
			dq := q.Dist2(pos)
			if dq > r2 {
				continue
			}
			mine := true
			for _, nb := range neighbors {
				if q.Dist2(nb) < dq {
					mine = false
					break
				}
			}
			if mine {
				sx += q.X
				sy += q.Y
				n++
			}
		}
	}
	if n == 0 {
		return pos, false
	}
	return geom.V2(sx/float64(n), sy/float64(n)), true
}

// lloydController runs one centroid-descent step per slot as a
// mobile.Planner. It ignores the curvature machinery entirely: the
// broadcast G is zero, the fit scratch unused, and the only inputs are
// the node's own position and its neighbors' reported positions.
type lloydController struct {
	id  int
	cfg mobile.Config
	r   float64
}

// newLloydController is the registered "lloyd" movement factory.
func newLloydController(id int, cfg mobile.Config) (mobile.Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 1
	}
	return &lloydController{id: id, cfg: cfg, r: lloydRangeFrac * cfg.Rc}, nil
}

func (c *lloydController) ID() int { return c.id }

// Estimate broadcasts no curvature: Lloyd's G is zero.
func (c *lloydController) Estimate(*curvature.Fitter, geom.Vec2, []field.Sample) (float64, error) {
	return 0, nil
}

// Plan performs the descent step: move toward the centroid of the
// r-limited local Voronoi cell. Stale neighbor reports (Age > 0) still
// bound the cell — a silent neighbor's last known position is the best
// available estimate of the territory it covers.
func (c *lloydController) Plan(pos geom.Vec2, neighbors []mobile.NeighborInfo) (mobile.Decision, error) {
	d := mobile.Decision{Peak: pos, Target: pos}
	nbr := make([]geom.Vec2, 0, len(neighbors))
	for _, nb := range neighbors {
		nbr = append(nbr, nb.Pos)
	}
	cen, ok := LloydLocalCentroid(pos, nbr, c.r, c.cfg.Region)
	if !ok {
		return d, nil
	}
	off := cen.Sub(pos)
	d.Fs = off
	if off.Len() <= lloydStopFrac*c.r {
		return d, nil // parked at (near) the centroid
	}
	d.Move = true
	d.Target = c.cfg.Region.ClampPoint(cen)
	return d, nil
}

// Step moves toward the announced centroid, velocity-limited by MaxStep.
func (c *lloydController) Step(pos geom.Vec2, d mobile.Decision) geom.Vec2 {
	return stepToward(c.cfg, pos, d)
}

// stepToward moves pos toward d.Target when d.Move is set, at most
// cfg.MaxStep, clamped to cfg.Region: the kinematics the Lloyd and tour
// controllers share.
func stepToward(cfg mobile.Config, pos geom.Vec2, d mobile.Decision) geom.Vec2 {
	if !d.Move {
		return pos
	}
	dir := d.Target.Sub(pos)
	dist := dir.Len()
	if dist == 0 {
		return pos
	}
	step := dist
	if step > cfg.MaxStep {
		step = cfg.MaxStep
	}
	return cfg.Region.ClampPoint(pos.Add(dir.Scale(step / dist)))
}
