// Package central implements the centralized comparator that the paper
// argues against for the OSTD problem (Section 5: "the centralized
// algorithm is not available for this system, in respect that it requires
// lots of transmission and results in much time delay"). A base station
// periodically collects the full field state, recomputes an FRA placement,
// assigns each mobile node a target by greedy nearest matching, and the
// nodes drive toward their targets under the same velocity limit as CMA.
//
// Implementing the strawman makes the paper's argument measurable: the
// replanner needs global sensing every period and pays a convergence lag
// of (distance to target)/v, during which the time-varying field keeps
// moving. The eval harness and benches compare its δ and its
// communication bill against the fully local CMA.
package central

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/surface"
)

// ErrBadParams is returned for invalid planner parameters.
var ErrBadParams = errors.New("central: invalid parameters")

// Options configures the centralized replanner.
type Options struct {
	// Rc is the communication radius (for the FRA connectivity plan).
	Rc float64
	// GridN is FRA's local-error lattice resolution; 0 defaults to 50.
	GridN int
	// MaxStep is the per-slot movement bound (v·Δt), matching CMA.
	MaxStep float64
	// ReplanEvery is the number of slots between plans; 0 defaults to 10.
	ReplanEvery int
	// SlotMinutes is the slot duration; 0 defaults to 1.
	SlotMinutes float64
	// Metrics, when non-nil, receives the replanner's counters
	// (central_replans_total, central_reports_total), the replan wall-time
	// histogram central_replan_seconds, the mean node-to-target transit
	// gauge central_mean_target_dist — and, passed through to core.FRA,
	// the refinement-loop counters and relay-budget gauges.
	Metrics *obs.Registry
}

// DefaultOptions mirrors the paper's mobile settings with a 10-minute
// replanning period.
func DefaultOptions() Options {
	return Options{Rc: 10, GridN: 50, MaxStep: 1, ReplanEvery: 10, SlotMinutes: 1}
}

// Planner is the centralized mobile controller.
type Planner struct {
	dyn     field.DynField
	opts    Options
	pos     []geom.Vec2
	targets []geom.Vec2
	anchors []field.Sample // plan-time corner values (historical data)
	t       float64
	slot    int
	// Uplink accounting: every replan costs one full-field report per
	// node (the "lots of transmission" of the paper's argument).
	reportsSent int

	// Observability handles; all nil (and therefore free) without a
	// registry in Options.Metrics.
	replans       *obs.Counter
	reports       *obs.Counter
	replanSeconds *obs.Histogram
	targetDist    *obs.Gauge
}

// New creates a planner for nodes at the given initial positions.
func New(dyn field.DynField, positions []geom.Vec2, opts Options) (*Planner, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrBadParams)
	}
	if opts.Rc <= 0 || opts.MaxStep <= 0 {
		return nil, fmt.Errorf("%w: rc=%v maxStep=%v", ErrBadParams, opts.Rc, opts.MaxStep)
	}
	if opts.GridN == 0 {
		opts.GridN = 50
	}
	if opts.ReplanEvery <= 0 {
		opts.ReplanEvery = 10
	}
	if opts.SlotMinutes <= 0 {
		opts.SlotMinutes = 1
	}
	p := &Planner{
		dyn:  dyn,
		opts: opts,
		pos:  append([]geom.Vec2(nil), positions...),
	}
	p.targets = append([]geom.Vec2(nil), p.pos...)
	if reg := opts.Metrics; reg != nil {
		p.replans = reg.Counter("central_replans_total")
		p.reports = reg.Counter("central_reports_total")
		p.replanSeconds = reg.Histogram("central_replan_seconds", nil)
		p.targetDist = reg.Gauge("central_mean_target_dist")
	}
	return p, nil
}

// N returns the number of nodes.
func (p *Planner) N() int { return len(p.pos) }

// Time returns the world time in minutes.
func (p *Planner) Time() float64 { return p.t }

// Positions returns a copy of the node positions.
func (p *Planner) Positions() []geom.Vec2 {
	return append([]geom.Vec2(nil), p.pos...)
}

// ReportsSent returns the cumulative number of full-state uplink reports
// (one per node per replan) — the communication bill of centralization.
func (p *Planner) ReportsSent() int { return p.reportsSent }

// Step advances one slot: replan if due, then drive every node toward its
// target under the velocity limit.
func (p *Planner) Step() error {
	if p.slot%p.opts.ReplanEvery == 0 {
		if err := p.replan(); err != nil {
			return err
		}
	}
	for i := range p.pos {
		delta := p.targets[i].Sub(p.pos[i]).ClampLen(p.opts.MaxStep)
		p.pos[i] = p.dyn.Bounds().ClampPoint(p.pos[i].Add(delta))
	}
	p.slot++
	p.t += p.opts.SlotMinutes
	return nil
}

// replan runs FRA on the current field slice and greedily matches nodes
// to the planned positions by nearest distance.
func (p *Planner) replan() error {
	timer := p.replanSeconds.StartTimer()
	defer timer.Stop()
	slice := field.Slice(p.dyn, p.t)
	placement, err := core.FRA(slice, core.FRAOptions{
		K: p.N(), Rc: p.opts.Rc, GridN: p.opts.GridN,
		Metrics: p.opts.Metrics,
	})
	if err != nil {
		return fmt.Errorf("central: replan at t=%v: %w", p.t, err)
	}
	p.reportsSent += p.N()
	p.replans.Inc()
	p.reports.Add(int64(p.N()))
	p.targets = assign(p.pos, placement.Nodes)
	if p.targetDist != nil {
		sum := 0.0
		for i := range p.pos {
			sum += p.pos[i].Dist(p.targets[i])
		}
		p.targetDist.Set(sum / float64(p.N()))
	}
	p.anchors = p.anchors[:0]
	for _, a := range placement.Anchors {
		p.anchors = append(p.anchors, field.Sample{Pos: a, Z: slice.Eval(a)})
	}
	return nil
}

// assign greedily matches each target to its nearest unassigned node,
// processing node-target pairs in globally increasing distance order —
// an O(n² log n) approximation of the assignment problem that avoids
// pathological long hauls.
func assign(nodes, targets []geom.Vec2) []geom.Vec2 {
	n := len(nodes)
	type pair struct {
		d    float64
		node int
		tgt  int
	}
	pairs := make([]pair, 0, n*len(targets))
	for i, np := range nodes {
		for j, tp := range targets {
			pairs = append(pairs, pair{d: np.Dist(tp), node: i, tgt: j})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		x, y := pairs[a], pairs[b]
		if x.d != y.d {
			return x.d < y.d
		}
		if x.node != y.node {
			return x.node < y.node
		}
		return x.tgt < y.tgt
	})
	out := make([]geom.Vec2, n)
	nodeDone := make([]bool, n)
	tgtDone := make([]bool, len(targets))
	assigned := 0
	for _, pr := range pairs {
		if assigned == n {
			break
		}
		if nodeDone[pr.node] || tgtDone[pr.tgt] {
			continue
		}
		out[pr.node] = targets[pr.tgt]
		nodeDone[pr.node] = true
		tgtDone[pr.tgt] = true
		assigned++
	}
	// More nodes than targets: the rest hold position.
	for i := range out {
		if !nodeDone[i] {
			out[i] = nodes[i]
		}
	}
	return out
}

// Delta computes the paper's δ for the planner's current node positions
// against the current field slice.
func (p *Planner) Delta(n int) (float64, error) {
	slice := field.Slice(p.dyn, p.t)
	samples := make([]field.Sample, 0, p.N()+len(p.anchors))
	samples = append(samples, p.anchors...)
	for _, pos := range p.pos {
		samples = append(samples, field.Sample{Pos: pos, Z: slice.Eval(pos)})
	}
	d, err := surface.DeltaSamples(slice, samples, n)
	if err != nil {
		return 0, fmt.Errorf("central: delta: %w", err)
	}
	return d, nil
}

// Connected reports whether the planner's network is connected at Rc.
// During transit between plans it generally is not — exactly the paper's
// objection to centralized control of a connectivity-constrained swarm.
func (p *Planner) Connected() bool {
	return graph.NewUnitDisk(p.pos, p.opts.Rc).Connected()
}
