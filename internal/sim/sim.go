// Package sim is the deterministic time-stepped simulator for the OSTD
// experiments: a world of mobile CPS nodes running the CMA controller over
// a time-varying field, with the paper's sensing (Rs), communication (Rc)
// and velocity (v) models, per-slot metrics and trace recording.
//
// World is a thin façade over the staged step pipeline in
// internal/engine: each slot reproduces the message structure of Table 2
// against a consistent snapshot — nodes sense and fit curvature, exchange
// (position, G) with single-hop neighbors, compute virtual forces, move
// under the velocity limit, and apply the Local Connectivity Mechanism to
// announcements from moving neighbors — as the engine's Sense, Fit,
// Exchange, Plan, Resolve, Move and Account stages.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
	"repro/internal/obs"
	"repro/internal/surface"
	"repro/internal/view"
)

// ErrNoNodes is returned when a world is created without nodes.
var ErrNoNodes = errors.New("sim: no nodes")

// Options configures a world. Neighbor discovery has no options: the
// engine finds every node's single-hop neighbors afresh each slot.
type Options struct {
	// Config is the per-node CMA configuration.
	Config mobile.Config
	// NoiseStd is the sensing noise standard deviation.
	NoiseStd float64
	// Seed drives the sensing noise.
	Seed int64
	// SlotMinutes is the duration of one time slot; 0 defaults to 1 (the
	// paper's per-minute dynamics).
	SlotMinutes float64
	// Trace configures movement-path sampling (the paper's future-work
	// extension; see TraceOptions).
	Trace TraceOptions
	// Faults optionally injects node crashes, battery depletion, link loss
	// and sensing faults (see internal/fault). nil — or an injector whose
	// Config is inert — leaves the simulation bit-identical to a
	// fault-free run. The injector must be built for exactly N nodes and
	// must not be shared between worlds.
	Faults *fault.Injector
	// Metrics, when non-nil, receives the engine's per-stage wall-time
	// histograms plus the world's per-round gauges: sim_delta and
	// sim_delta_evals_total (every Delta evaluation), sim_connected and
	// sim_connectivity_checks_total (every Connected query), and
	// sim_coverage / sim_alive_fraction refreshed each step. An attached
	// fault injector reports its event counters to the same registry.
	// Instrumentation never perturbs the trajectory; nil is free.
	Metrics *obs.Registry
	// NewController builds each node's movement planner; nil means the
	// paper's CMA controller (mobile.DefaultFactory). Movement strategies
	// from internal/strategy plug their per-node controllers in here; the
	// nil default is bit-identical to the pre-interface world.
	NewController mobile.ControllerFactory
}

// DefaultOptions returns the paper's Section 6 OSTD settings.
func DefaultOptions() Options {
	return Options{Config: mobile.DefaultConfig(), SlotMinutes: 1}
}

// StepStats summarizes one simulation slot. It is the engine's stat
// record; the alias keeps the sim API stable across the staged-engine
// refactor.
type StepStats = engine.StepStats

// World is a deterministic simulation of mobile CPS nodes: a façade over
// the staged engine that adds trace sampling and the δ evaluation
// helpers.
type World struct {
	dyn   field.DynField
	opts  Options
	eng   *engine.Engine
	trace *traceStore
	met   *worldMetrics
}

// worldMetrics holds the world's per-round observability gauges; nil
// means off.
type worldMetrics struct {
	delta      *obs.Gauge   // sim_delta: last evaluated δ
	deltaEvals *obs.Counter // sim_delta_evals_total
	connected  *obs.Gauge   // sim_connected: 1 or 0 at the last check
	connChecks *obs.Counter // sim_connectivity_checks_total
	coverage   *obs.Gauge   // sim_coverage: nominal sensing-disc coverage
	aliveFrac  *obs.Gauge   // sim_alive_fraction
}

func newWorldMetrics(reg *obs.Registry) *worldMetrics {
	return &worldMetrics{
		delta:      reg.Gauge("sim_delta"),
		deltaEvals: reg.Counter("sim_delta_evals_total"),
		connected:  reg.Gauge("sim_connected"),
		connChecks: reg.Counter("sim_connectivity_checks_total"),
		coverage:   reg.Gauge("sim_coverage"),
		aliveFrac:  reg.Gauge("sim_alive_fraction"),
	}
}

// NewWorld creates a world with nodes at the given initial positions.
func NewWorld(dyn field.DynField, positions []geom.Vec2, opts Options) (*World, error) {
	if len(positions) == 0 {
		return nil, ErrNoNodes
	}
	if opts.SlotMinutes <= 0 {
		opts.SlotMinutes = 1
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if opts.Faults != nil && opts.Faults.N() != len(positions) {
		return nil, fmt.Errorf("sim: fault injector built for %d nodes, world has %d",
			opts.Faults.N(), len(positions))
	}
	w := &World{dyn: dyn, opts: opts}
	if opts.Trace.Enabled {
		w.trace = newTraceStore(opts.Trace)
	}
	if opts.Metrics != nil {
		w.met = newWorldMetrics(opts.Metrics)
		if opts.Faults != nil {
			opts.Faults.SetMetrics(opts.Metrics)
		}
	}
	eng, err := engine.New(dyn, positions, engine.Options{
		Config:        opts.Config,
		NoiseStd:      opts.NoiseStd,
		Seed:          opts.Seed,
		SlotMinutes:   opts.SlotMinutes,
		Faults:        opts.Faults,
		BeforeMove:    w.beforeMove,
		Metrics:       opts.Metrics,
		NewController: opts.NewController,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w.eng = eng
	return w, nil
}

// beforeMove is the engine's pre-commit hook: it records movement-path
// trace samples against the pre-advance world time, exactly where the
// monolithic step did.
func (w *World) beforeMove(old, next []geom.Vec2) {
	if w.trace == nil {
		return
	}
	t := w.eng.Time()
	for i := range old {
		w.trace.recordPath(w.dyn, old[i], next[i], t)
	}
	w.trace.prune(t + w.opts.SlotMinutes)
}

// Engine returns the underlying staged engine.
func (w *World) Engine() *engine.Engine { return w.eng }

// N returns the number of nodes.
func (w *World) N() int { return w.eng.N() }

// Time returns the current world time in minutes.
func (w *World) Time() float64 { return w.eng.Time() }

// Rc returns the world's communication radius — the Config.Rc every
// connectivity and collection-tree decision in this world uses. Harnesses
// that maintain network structures alongside a world (tree repair, sweep
// cells at non-default radii) must test links at this radius rather than
// re-deriving it from the default configuration.
func (w *World) Rc() float64 { return w.opts.Config.Rc }

// Positions returns a copy of the current node positions.
func (w *World) Positions() []geom.Vec2 { return w.eng.Positions() }

// Connected reports whether the node network is connected at Rc. With a
// fault injector attached, dead nodes neither route nor count: the induced
// subgraph over the alive nodes is tested instead.
func (w *World) Connected() bool {
	ok := w.eng.ConnectedIn(w.aliveView())
	if w.met != nil {
		w.met.connChecks.Inc()
		if ok {
			w.met.connected.Set(1)
		} else {
			w.met.connected.Set(0)
		}
	}
	return ok
}

// aliveView returns the current alive view: nil mask without an injector.
func (w *World) aliveView() view.Alive {
	v := view.Alive{Pos: w.eng.Pos(), Epoch: w.eng.SlotIndex()}
	if w.opts.Faults != nil {
		v.Mask = w.opts.Faults.AliveMask(nil)
	}
	return v
}

// Injector returns the attached fault injector, or nil.
func (w *World) Injector() *fault.Injector { return w.opts.Faults }

// AliveMask returns the aliveness of every node (all true without an
// injector).
func (w *World) AliveMask() []bool {
	mask := make([]bool, w.N())
	if w.opts.Faults != nil {
		return w.opts.Faults.AliveMask(mask)
	}
	for i := range mask {
		mask[i] = true
	}
	return mask
}

// Step advances the world by one slot through the engine's stage
// pipeline. With an active fault injector the slot degrades gracefully:
// dead nodes neither sense, transmit nor move; lost or silent neighbor
// reports are replayed from the stale cache with their age so forces
// decay; batteries drain with movement and the hello broadcast. Without an
// injector (or with an inert one) the slot is bit-identical to the
// original fault-free dynamics.
func (w *World) Step() (StepStats, error) {
	st, err := w.eng.Step()
	if err != nil {
		return StepStats{}, fmt.Errorf("sim: %w", err)
	}
	if w.met != nil {
		frac := float64(st.Alive) / float64(w.N())
		w.met.aliveFrac.Set(frac)
		// Nominal sensing coverage: the alive swarm's total disc area over
		// the region area, capped at 1 — a cheap upper bound that tracks
		// deaths without integrating disc overlaps.
		area := w.dyn.Bounds().Area()
		if area > 0 {
			cov := float64(st.Alive) * math.Pi * w.opts.Config.Rs * w.opts.Config.Rs / area
			w.met.coverage.Set(math.Min(1, cov))
		}
	}
	return st, nil
}

// TotalEnergy returns the cumulative movement energy of the whole swarm.
func (w *World) TotalEnergy() float64 { return w.eng.TotalEnergy() }

// Delta computes the paper's δ for the current node positions against the
// current field slice, reconstructing by Delaunay interpolation on an
// n-division lattice. With a fault injector attached, dead nodes
// contribute no samples — the reconstruction degrades to what the
// surviving swarm can actually report.
func (w *World) Delta(n int) (float64, error) {
	slice := field.Slice(w.dyn, w.eng.Time())
	samples := make([]field.Sample, 0, w.N())
	for i, p := range w.eng.Pos() {
		if w.opts.Faults != nil && !w.opts.Faults.Alive(i) {
			continue
		}
		samples = append(samples, field.Sample{Pos: p, Z: slice.Eval(p)})
	}
	d, err := surface.DeltaSamples(slice, samples, n)
	if err != nil {
		return 0, fmt.Errorf("sim: delta: %w", err)
	}
	if w.met != nil {
		w.met.delta.Set(d)
		w.met.deltaEvals.Inc()
	}
	return d, nil
}

// Snapshot is the world state after one step, as recorded by Run.
type Snapshot struct {
	// Stats are the step statistics.
	Stats StepStats
	// Positions are the node positions after the step.
	Positions []geom.Vec2
	// Delta is δ after the step (computed when Run's deltaN > 0).
	Delta float64
	// Connected reports network connectivity after the step.
	Connected bool
}

// Run advances the world by steps slots, recording a snapshot after each.
// When deltaN > 0, δ is evaluated on a deltaN-division lattice each slot
// (the expensive part); pass 0 to skip it.
func (w *World) Run(steps, deltaN int) ([]Snapshot, error) {
	out := make([]Snapshot, 0, steps)
	for s := 0; s < steps; s++ {
		st, err := w.Step()
		if err != nil {
			return out, err
		}
		snap := Snapshot{
			Stats:     st,
			Positions: w.Positions(),
			Connected: w.Connected(),
		}
		if deltaN > 0 {
			d, err := w.Delta(deltaN)
			if err != nil {
				return out, err
			}
			snap.Delta = d
		}
		out = append(out, snap)
	}
	return out, nil
}
