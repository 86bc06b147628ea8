package mobile

import (
	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
)

// Planner is the per-node movement controller contract the engine's Fit
// and Plan stages drive — exactly the method set the staged pipeline uses
// on *Controller, extracted so alternative movement strategies
// (internal/strategy's Lloyd descent, density redistribution) plug into
// the same pipeline without the engine knowing their dynamics.
//
// The engine's calling convention per slot, which implementations must
// honor:
//
//  1. Estimate(f, pos, samples) — the Fit stage. It returns the node's
//     own curvature estimate G, which becomes its broadcast payload.
//     Implementations keep whatever they need from samples for the Plan
//     call of the same slot; the slice is unchanged until that Plan
//     returns and is reused afterwards.
//  2. Plan(pos, neighbors) — the Plan stage, after the slot's exchange.
//     It runs once per slot and only after that slot's Estimate by the
//     same node. The full Decision is consumed: Fs feeds the step
//     statistics, Target the LCM resolution, Move the movement gate.
//  3. Step(pos, d) — the velocity-limited position update executing the
//     decision; the result is still subject to LCM resolution before
//     commit.
//
// f is per-worker curvature-fit scratch built with Config.FitMethod;
// implementations that do not fit curvature may ignore it. A Planner is
// owned by one node and is never called concurrently.
type Planner interface {
	// ID returns the node ID the planner was built for.
	ID() int
	Estimate(f *curvature.Fitter, pos geom.Vec2, samples []field.Sample) (float64, error)
	Plan(pos geom.Vec2, neighbors []NeighborInfo) (Decision, error)
	Step(pos geom.Vec2, d Decision) geom.Vec2
}

// ControllerFactory builds one node's Planner from the engine-wide mobile
// configuration. engine.Options.NewController takes one; nil there means
// NewController (the paper's CMA), which keeps the default path
// bit-identical to the pre-interface engine.
type ControllerFactory func(id int, cfg Config) (Planner, error)

// DefaultFactory is the CMA ControllerFactory: it wraps NewController's
// concrete *Controller in the Planner interface.
func DefaultFactory(id int, cfg Config) (Planner, error) {
	return NewController(id, cfg)
}
