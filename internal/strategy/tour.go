package strategy

import (
	"sort"

	"repro/internal/central"
	"repro/internal/core"
	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
)

// Tour-constrained mobility after Dutta et al.'s robot-tours work
// (PAPERS.md): every node is tethered to a home point and patrols a
// closed tour of bounded length, visiting the most informative positions
// it can reach within its travel budget, then returning home and
// replanning against fresh observations. central.PlanTour supplies the
// geometry; this file keeps the controller strictly local in the Cortés
// sense — a node plans only from its own sensed samples, never from the
// field or other nodes' territory.
//
// The strategy registers twice: the movement "tour" (patrol controller
// riding the engine's Plan stage) and the placement "tour" (each node
// parked at the centroid of the tour it would patrol, a tour-seeded
// static deployment). Sweeps score it by δ per unit tour length via the
// energy column — engine energy is exactly meters traveled.

const (
	// tourBudgetMul sets the per-node travel budget as a multiple of Rc:
	// budget = tourBudgetMul·Rc. With the paper's Rc = 10 m and
	// v = 1 m/min, a full lap costs at most 20 slots. Relative to Rc so
	// the dynamics are scale-equivariant, like lloydRangeFrac.
	tourBudgetMul = 2.0
	// tourMaxStops bounds the number of stops per tour; the cheapest-
	// insertion planner is O(stops³) in the worst case, and a patrol
	// past a handful of waypoints stops being a patrol.
	tourMaxStops = 6
)

func init() {
	RegisterPlacement(placementFunc{"tour", placeTour})
	RegisterMovement(movementFunc{"tour", newTourController})
}

// tourStops selects up to tourMaxStops stop positions from sensed
// samples: the positions whose values deviate most from the local mean —
// the points a fixed sensor at home would mispredict worst. Ties resolve
// to the lower sample index, duplicate positions are dropped, so the
// selection is a deterministic function of the sample slice.
func tourStops(samples []field.Sample) []geom.Vec2 {
	if len(samples) == 0 {
		return nil
	}
	mean := 0.0
	for _, s := range samples {
		mean += s.Z
	}
	mean /= float64(len(samples))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	score := func(i int) float64 {
		d := samples[i].Z - mean
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.SliceStable(idx, func(a, b int) bool { return score(idx[a]) > score(idx[b]) })
	stops := make([]geom.Vec2, 0, tourMaxStops)
	seen := make(map[geom.Vec2]bool, tourMaxStops)
	for _, i := range idx {
		if len(stops) == tourMaxStops {
			break
		}
		p := samples[i].Pos
		if seen[p] {
			continue
		}
		seen[p] = true
		stops = append(stops, p)
	}
	return stops
}

// tourController is the "tour" movement: patrol a planned closed tour at
// MaxStep, waypoint by waypoint, and replan from fresh samples each time
// the lap closes at home. Like Lloyd it broadcasts no curvature (G = 0)
// and ignores neighbors — the tour tether itself bounds how far nodes
// stray, which is what keeps δ-per-meter meaningful.
type tourController struct {
	id      int
	cfg     mobile.Config
	budget  float64
	home    geom.Vec2
	homeSet bool
	wp      []geom.Vec2 // planned waypoints: tour stops then home
	next    int
	samples []field.Sample // this slot's samples, kept by Estimate for Plan
}

// newTourController is the registered "tour" movement factory.
func newTourController(id int, cfg mobile.Config) (mobile.Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StopEps <= 0 {
		cfg.StopEps = 0.8
	}
	return &tourController{id: id, cfg: cfg, budget: tourBudgetMul * cfg.Rc}, nil
}

func (c *tourController) ID() int { return c.id }

// Estimate broadcasts no curvature (G = 0). It pins the home anchor to
// the node's first observed position and keeps the slot's samples for
// Plan.
func (c *tourController) Estimate(_ *curvature.Fitter, pos geom.Vec2, samples []field.Sample) (float64, error) {
	if !c.homeSet {
		c.home, c.homeSet = pos, true
	}
	c.samples = samples
	return 0, nil
}

// Plan advances the patrol: plan a tour when none is pending, otherwise
// head for the current waypoint, advancing it once within StopEps. The
// samples are this node's own sensed values from Estimate; neighbors are
// deliberately unused.
func (c *tourController) Plan(pos geom.Vec2, _ []mobile.NeighborInfo) (mobile.Decision, error) {
	d := mobile.Decision{Peak: pos, Target: pos}
	if len(c.wp) == 0 {
		tour := central.PlanTour(c.home, tourStops(c.samples), c.budget)
		if len(tour) == 0 {
			return d, nil // nothing worth visiting: hold at home
		}
		c.wp = append(tour, c.home)
		c.next = 0
	}
	for c.next < len(c.wp) && pos.Dist(c.wp[c.next]) <= c.cfg.StopEps {
		c.next++
	}
	if c.next == len(c.wp) {
		// Lap closed at home: replan next slot from fresh samples.
		c.wp, c.next = nil, 0
		return d, nil
	}
	target := c.cfg.Region.ClampPoint(c.wp[c.next])
	d.Peak = target
	d.Fs = target.Sub(pos)
	d.Move = true
	d.Target = target
	return d, nil
}

// Step moves toward the current waypoint, velocity-limited by MaxStep —
// the same kinematics as every other movement strategy.
func (c *tourController) Step(pos geom.Vec2, d mobile.Decision) geom.Vec2 {
	return stepToward(c.cfg, pos, d)
}

// placeTour is the tour-seeded static deployment: from the deterministic
// grid of homes, each node plans the tour it would patrol — stops drawn
// from the field's values on the working lattice within its budget disc,
// most-deviant-first exactly like the controller — and parks at the
// tour's centroid (its patrol's center of mass). Nodes whose tour is
// empty hold their grid home.
func placeTour(f field.Field, o PlaceOptions) (core.Placement, error) {
	if err := validatePlace(o); err != nil {
		return core.Placement{}, err
	}
	gridN := o.GridN
	if gridN == 0 {
		gridN = 100
	}
	region := f.Bounds()
	homes := field.GridLayout(region, o.K)
	lattice := field.GridPositions(region, gridN)
	budget := tourBudgetMul * o.Rc
	// A stop farther than budget/2 from home cannot be on any feasible
	// tour (the out-and-back alone exceeds the budget).
	reach2 := (budget / 2) * (budget / 2)

	nodes := make([]geom.Vec2, o.K)
	for i, home := range homes {
		local := make([]field.Sample, 0, 32)
		for _, q := range lattice {
			if q.Dist2(home) <= reach2 {
				local = append(local, field.Sample{Pos: q, Z: f.Eval(q)})
			}
		}
		tour := central.PlanTour(home, tourStops(local), budget)
		if len(tour) == 0 {
			nodes[i] = home
			continue
		}
		var sx, sy float64
		for _, p := range tour {
			sx += p.X
			sy += p.Y
		}
		nodes[i] = region.ClampPoint(geom.V2(sx/float64(len(tour)), sy/float64(len(tour))))
	}
	return core.Placement{Nodes: nodes, Anchors: cornerAnchors(region)}, nil
}
