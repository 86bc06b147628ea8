package strategy

import (
	"math"

	"repro/internal/core"
	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
)

// Density/lifetime-aware redistribution, in the spirit of Chu & Sethu
// ("Cooperative mobility and lifetime maximization in mobile sensor
// networks"): nodes spread out by mutual repulsion, but each node scales
// its own motion by its remaining movement budget and discounts pressure
// from depleted neighbors. Nodes that have moved a lot stop pushing and
// stop yielding, so the swarm's residual mobility — not just its
// geometry — shapes the final distribution.
//
// Registered as both a placement ("density": budgeted repulsion iterated
// offline from a seeded random drop) and a movement ("density": one
// budget-scaled repulsion step per slot inside the engine).

const (
	// densityBudgetSlots sets the per-node movement budget for the online
	// controller, in units of MaxStep: a node may travel up to
	// densityBudgetSlots·MaxStep total distance before it is pinned.
	densityBudgetSlots = 30
	// densityStopEps is the net-force deadband below which a node parks
	// for the slot.
	densityStopEps = 0.05
	// densityPlaceIters and densityPlaceBudget bound the offline
	// placement's relaxation: at most densityPlaceIters rounds, each node
	// spending at most densityPlaceBudget·maxStep of travel.
	densityPlaceIters  = 60
	densityPlaceBudget = 25
)

func init() {
	RegisterPlacement(placementFunc{"density", placeDensity})
	RegisterMovement(movementFunc{"density", newDensityController})
}

// densityRepulsion accumulates the budget-weighted repulsion on a node at
// pos from neighbors within R. Each neighbor contributes a unit-direction
// push scaled by (R − d)/R, discounted by how depleted the neighbor
// reports itself to be (life in [0,1]): a node with no budget left repels
// at half weight, so mobile nodes flow around pinned ones instead of
// being shoved by them. Exactly coincident neighbors push along a
// deterministic per-id golden-angle direction so stacked nodes separate
// reproducibly.
func densityRepulsion(id int, pos geom.Vec2, R float64, push func(yield func(nb geom.Vec2, life, weight float64))) geom.Vec2 {
	var F geom.Vec2
	push(func(nb geom.Vec2, life, weight float64) {
		d := pos.Sub(nb)
		dist := d.Len()
		if dist >= R {
			return
		}
		if life < 0 {
			life = 0
		} else if life > 1 {
			life = 1
		}
		w := (0.5 + 0.5*life) * weight
		mag := (R - dist) / R * w
		if dist == 0 {
			// Coincident nodes: deterministic symmetry break by ID, the
			// same golden-angle convention CMA uses.
			ang := float64(id) * 2.399963
			F = F.Add(geom.V2(mag*math.Cos(ang), mag*math.Sin(ang)))
			return
		}
		F = F.Add(d.Scale(mag / dist))
	})
	return F
}

// placeDensity runs the budgeted repulsion offline: drop K nodes at
// seeded random positions, then iterate synchronous repulsion rounds in
// which every node moves along its net force by at most maxStep scaled by
// its remaining lifetime, until no node moves or the round cap is hit.
// The result is a spread-out distribution whose density reflects where
// the initial drop spent its budget — deliberately unlike Lloyd's
// uniform coverage.
func placeDensity(f field.Field, o PlaceOptions) (core.Placement, error) {
	if err := validatePlace(o); err != nil {
		return core.Placement{}, err
	}
	region := f.Bounds()
	nodes := core.RandomPlacement(region, o.K, o.Seed).Nodes
	R := o.Rc
	maxStep := region.Width() / 100
	budget := densityPlaceBudget * maxStep
	spent := make([]float64, o.K)
	next := make([]geom.Vec2, o.K)
	iters := 0
	for it := 0; it < densityPlaceIters; it++ {
		iters++
		moved := false
		for i := range nodes {
			life := 1 - spent[i]/budget
			if life <= 0 {
				next[i] = nodes[i]
				continue
			}
			F := densityRepulsion(i, nodes[i], R, func(yield func(geom.Vec2, float64, float64)) {
				for j := range nodes {
					if j == i {
						continue
					}
					yield(nodes[j], 1-spent[j]/budget, 1)
				}
			})
			Fs := F.Scale(life)
			mag := Fs.Len()
			if mag <= densityStopEps {
				next[i] = nodes[i]
				continue
			}
			step := maxStep * life
			if mag < step {
				step = mag
			}
			next[i] = region.ClampPoint(nodes[i].Add(Fs.Scale(step / mag)))
			if next[i] != nodes[i] {
				moved = true
			}
		}
		for i := range nodes {
			spent[i] += nodes[i].Dist(next[i])
			nodes[i] = next[i]
		}
		if !moved {
			break
		}
	}
	return core.Placement{
		Nodes:   nodes,
		Refined: iters, // bookkeeping: repulsion rounds run
		Anchors: cornerAnchors(region),
	}, nil
}

// densityController is the online movement phase: per-slot repulsion
// scaled by the node's remaining movement budget. The broadcast G field
// carries the node's lifetime in [0,1] (instead of CMA's curvature), so
// neighbors can discount pressure from depleted nodes using only the
// existing exchange payload.
type densityController struct {
	id    int
	cfg   mobile.Config
	spent float64 // total distance traveled so far
}

// newDensityController is the registered "density" movement factory.
func newDensityController(id int, cfg mobile.Config) (mobile.Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 1
	}
	if cfg.Rs <= 0 {
		cfg.Rs = cfg.Rc / 2
	}
	return &densityController{id: id, cfg: cfg}, nil
}

func (c *densityController) ID() int { return c.id }

// life is the remaining fraction of the node's movement budget.
func (c *densityController) life() float64 {
	l := 1 - c.spent/(densityBudgetSlots*c.cfg.MaxStep)
	if l < 0 {
		return 0
	}
	return l
}

// Estimate broadcasts the node's remaining lifetime as G — the one
// scalar the exchange stage already carries — so neighbors can weigh its
// pressure without any new message fields.
func (c *densityController) Estimate(*curvature.Fitter, geom.Vec2, []field.Sample) (float64, error) {
	return c.life(), nil
}

// Plan computes the budget-scaled repulsion step. Stale neighbor
// reports decay by half per slot of age, matching CMA's stale-neighbor
// convention.
func (c *densityController) Plan(pos geom.Vec2, neighbors []mobile.NeighborInfo) (mobile.Decision, error) {
	life := c.life()
	d := mobile.Decision{G: life, Peak: pos, Target: pos}
	if life <= 0 {
		return d, nil // budget exhausted: pinned
	}
	F := densityRepulsion(c.id, pos, c.cfg.Rc, func(yield func(geom.Vec2, float64, float64)) {
		for _, nb := range neighbors {
			decay := 1.0
			for a := 0; a < nb.Age; a++ {
				decay *= 0.5
			}
			yield(nb.Pos, nb.G, decay)
		}
	})
	d.Fr = F
	d.Fs = F.Scale(life)
	if d.Fs.Len() <= densityStopEps {
		return d, nil
	}
	d.Move = true
	d.Target = c.cfg.Region.ClampPoint(pos.Add(d.Fs.Scale(c.cfg.Rs / d.Fs.Len())))
	return d, nil
}

// Step moves toward the target, limited by MaxStep scaled by remaining
// lifetime, and charges the traveled distance against the budget.
func (c *densityController) Step(pos geom.Vec2, d mobile.Decision) geom.Vec2 {
	if !d.Move {
		return pos
	}
	dir := d.Target.Sub(pos)
	dist := dir.Len()
	if dist == 0 {
		return pos
	}
	step := c.cfg.MaxStep * c.life()
	if dist < step {
		step = dist
	}
	if step <= 0 {
		return pos
	}
	next := c.cfg.Region.ClampPoint(pos.Add(dir.Scale(step / dist)))
	// The engine's Resolve stage may still veto the move (LCM connectivity),
	// but charging intended motion keeps the controller deterministic
	// without feedback it does not have; documented as an energy proxy.
	c.spent += pos.Dist(next)
	return next
}
