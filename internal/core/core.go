// Package core implements the paper's primary contribution for the OSD
// (optimal spatial distribution) problem: the Foresighted Refinement
// Algorithm (FRA, Section 4.2), the random- and uniform-placement
// baselines it is evaluated against, the curvature-weighted distribution
// (CWD) pattern of Section 5.1, and the placement evaluator that scores a
// distribution by the paper's δ metric under the connectivity constraint.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/delaunay"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/surface"
)

// ErrBadParams is returned for non-positive k, Rc or grid resolution.
var ErrBadParams = errors.New("core: invalid parameters")

// Placement is the outcome of a distribution algorithm: node positions
// plus bookkeeping about how they were chosen.
type Placement struct {
	// Nodes are the k node positions.
	Nodes []geom.Vec2
	// Refined counts nodes placed at maximum-local-error positions.
	Refined int
	// Relays counts nodes spent connecting the network (FRA's foresight
	// step).
	Relays int
	// Anchors are virtual reference positions (region corners) whose
	// historical values seed the reconstruction; they are not deployed
	// nodes and do not count toward k.
	Anchors []geom.Vec2
}

// FRAOptions configures the Foresighted Refinement Algorithm.
type FRAOptions struct {
	// K is the number of CPS nodes to place.
	K int
	// Rc is the communication radius for the connectivity constraint.
	Rc float64
	// GridN is the number of lattice divisions per side for the local
	// error array (the paper's √A × √A array); 0 defaults to 100.
	GridN int
	// DisableForesight turns off the connectivity foresight step: all k
	// nodes go to maximum-local-error positions and no relays are placed.
	// This is the "refine only" ablation of DESIGN.md §5 — it typically
	// yields a lower δ but a disconnected network, violating the paper's
	// constraint.
	DisableForesight bool
	// fullGridUpdates disables the incremental refresh of the local-error
	// lattice from each insertion's new triangles, recomputing the whole
	// grid after every insertion as the original implementation did. The
	// two paths produce identical placements; this knob exists so tests
	// can prove it.
	fullGridUpdates bool
	// Metrics, when non-nil, receives the refinement-loop counters
	// (fra_runs_total, fra_refined_total, fra_relays_total,
	// fra_banned_total, fra_refine_attempts_total,
	// fra_prefix_picks_total), the wall-time histogram fra_run_seconds,
	// and the relay-budget gauges fra_relay_budget / fra_relay_bill
	// refreshed at every selection. fra_refined_total and
	// fra_relays_total count what the placements hold; attempts and bans
	// count the candidates this run examined, so picks taken from a
	// Reference's trajectory (fra_prefix_picks_total) add none.
	// Observation only; placements are bit-identical with or without it.
	Metrics *obs.Registry
}

// DefaultFRAOptions returns the evaluation settings of the paper's
// Section 6: Rc = 10 on the 100×100 region with a one-meter lattice.
func DefaultFRAOptions(k int) FRAOptions {
	return FRAOptions{K: k, Rc: 10, GridN: 100}
}

// FRA runs the Foresighted Refinement Algorithm against the historical
// surface f and returns the chosen placement. The algorithm follows the
// paper's Table 1: repeatedly add the position of maximum local error,
// retriangulate, and before every selection check whether the remaining
// budget is still sufficient to stitch the connectivity graph together —
// when it is exactly sufficient, spend the rest on relay nodes along the
// Prim/Kruskal component links.
//
// When f is a surface.Reference, the steps every budget shares are taken
// from the Reference's budget-free trajectory (trajectory.go) rather than
// recomputed; the placement is the same bit for bit.
func FRA(f field.Field, opts FRAOptions) (Placement, error) {
	if opts.K <= 0 || !(opts.Rc > 0) || math.IsInf(opts.Rc, 1) {
		return Placement{}, fmt.Errorf("%w: k=%d rc=%v", ErrBadParams, opts.K, opts.Rc)
	}
	gridN := opts.GridN
	if gridN == 0 {
		gridN = 100
	}
	if gridN < 1 {
		return Placement{}, fmt.Errorf("%w: gridN=%d", ErrBadParams, opts.GridN)
	}
	met := newFRAMetrics(opts.Metrics)
	met.runs.Inc()
	runTimer := met.runSeconds.StartTimer()
	defer runTimer.Stop()

	st, err := newFRAState(f, opts.Rc, opts.K)
	if err != nil {
		return Placement{}, err
	}
	st.fullGridUpdates = opts.fullGridUpdates
	foresight := !opts.DisableForesight
	if ref, ok := f.(*surface.Reference); ok && foresight && !opts.fullGridUpdates {
		st.follow(trajectoryOf(ref, gridN, opts.Rc), opts.K, gridN, &met)
	} else {
		st.startRefining(gridN, foresight)
		st.run(opts.K, foresight, &met)
	}

	corners := f.Bounds().Corners()
	placement := Placement{Nodes: st.selected, Refined: st.refined, Relays: st.relays, Anchors: corners[:]}
	met.refined.Add(int64(placement.Refined))
	met.relays.Add(int64(placement.Relays))
	return placement, nil
}

// fraState is the refinement loop's state over one field: the
// reconstruction, seeded with the region corners (virtual anchors valued
// from the historical surface, Table 1's initial two triangles), the
// local-error lattice, the relay oracle, and the selected and banned
// positions. FRA's loop (run) and a trajectory's extension both advance
// it through refine.
type fraState struct {
	f      field.Field
	region geom.Rect
	rc     float64
	tin    *surface.TIN
	// grid and oracle are nil until startRefining; oracle stays nil
	// without foresight.
	grid   *surface.LocalErrorGrid
	oracle *graph.RelayOracle

	selected    []geom.Vec2
	selectedSet map[geom.Vec2]bool
	banned      map[geom.Vec2]bool
	tried       map[geom.Vec2]bool // nextRefinement's scratch

	refined, relays int
	// fullGridUpdates disables the incremental lattice refresh
	// (FRAOptions.fullGridUpdates).
	fullGridUpdates bool
}

// newFRAState seeds a reconstruction of f with the region corners and
// sizes the selection for k nodes.
func newFRAState(f field.Field, rc float64, k int) (*fraState, error) {
	region := f.Bounds()
	st := &fraState{
		f: f, region: region, rc: rc,
		tin:         surface.NewTIN(region),
		selected:    make([]geom.Vec2, 0, k),
		selectedSet: make(map[geom.Vec2]bool, k),
		banned:      make(map[geom.Vec2]bool),
		tried:       make(map[geom.Vec2]bool),
	}
	for _, c := range region.Corners() {
		if err := st.tin.Add(st.sample(c)); err != nil {
			return nil, fmt.Errorf("core: seed corner %v: %w", c, err)
		}
	}
	return st, nil
}

// startRefining builds the local-error lattice against the current
// reconstruction and, with foresight, the relay oracle over the current
// selection. The oracle answers the affordability check
// L(G ∪ {p}, Rc) ≤ budget incrementally instead of rebuilding the
// unit-disk graph per candidate.
func (st *fraState) startRefining(gridN int, foresight bool) {
	st.grid = surface.NewLocalErrorGrid(st.f, gridN)
	st.grid.Update(st.tin)
	if foresight {
		st.oracle = graph.NewRelayOracle(st.rc)
		for _, p := range st.selected {
			st.oracle.Commit(p)
		}
	}
}

// sample is f's value at p.
func (st *fraState) sample(p geom.Vec2) field.Sample {
	return field.Sample{Pos: p, Z: st.f.Eval(p)}
}

// add inserts s into the reconstruction and the selection and reports the
// triangles the insertion created (exact=false demands a full refresh).
// A duplicate position returns the insertion's error and changes only the
// triangulation's walk hint.
func (st *fraState) add(s field.Sample) (created []delaunay.Triangle, exact bool, err error) {
	created, exact, err = st.tin.AddDirty(s)
	if err != nil {
		return nil, false, err
	}
	st.selected = append(st.selected, s.Pos)
	st.selectedSet[s.Pos] = true
	if st.oracle != nil {
		st.oracle.Commit(s.Pos)
	}
	return created, exact, nil
}

// run is FRA's loop from the current state until k nodes are placed: a
// foresight check before every selection, then a refinement step. The
// state must be refining (startRefining).
func (st *fraState) run(k int, foresight bool, met *fraMetrics) {
	for len(st.selected) < k {
		remaining := k - len(st.selected)
		bill := 0
		if st.oracle != nil {
			bill = st.oracle.Relays()
			met.relayBudget.Set(float64(remaining - 1))
			met.relayBill.Set(float64(bill))
		}
		if foresight && len(st.selected) > 0 && bill >= remaining {
			// Foresight trigger: the rest of the budget goes to relays.
			st.spendRestOnRelays(k)
			return
		}
		// Refinement step, skipping positions whose addition would make
		// connectivity unaffordable.
		budget := remaining - 1
		if !foresight {
			budget = math.MaxInt // unconstrained
		}
		if _, _, out := st.refine(budget, met); out == stepExhausted {
			if foresight {
				st.spendRestOnRelays(k)
			}
			return
		}
	}
}

// stepOutcome is what one refinement step did.
type stepOutcome int

const (
	stepPicked    stepOutcome = iota // the node joined the reconstruction
	stepBanned                       // the node duplicated a sample and is banned
	stepExhausted                    // no lattice node qualified
)

// refine is one refinement step (Table 1, lines 9–11): the lattice node of
// maximum local error whose addition keeps the relay bill within
// budgetAfter, inserted into the reconstruction with the local errors
// refreshed. It returns the node's sample, the relay bill with the node
// (0 without an oracle) and the outcome; on stepExhausted the state is
// unchanged.
func (st *fraState) refine(budgetAfter int, met *fraMetrics) (s field.Sample, billWith int, out stepOutcome) {
	p, billWith, ok := nextRefinement(st.grid, st.oracle, st.selectedSet, st.banned, st.tried, budgetAfter, met.attempts)
	if !ok {
		return field.Sample{}, 0, stepExhausted
	}
	s = st.sample(p)
	created, exact, err := st.add(s)
	if err != nil {
		st.banned[p] = true
		met.banned.Inc()
		return s, billWith, stepBanned
	}
	st.refined++
	if exact && !st.fullGridUpdates {
		st.grid.UpdateTriangles(st.tin, created)
	} else {
		st.grid.Update(st.tin)
	}
	return s, billWith, stepPicked
}

// spendRestOnRelays places relays along the component links of the
// selection until k nodes are placed; a relay position that duplicates a
// sample is skipped.
func (st *fraState) spendRestOnRelays(k int) {
	for _, rp := range graph.RelayPositions(st.selected, st.rc) {
		if len(st.selected) >= k {
			break
		}
		if _, _, err := st.add(st.sample(st.region.ClampPoint(rp))); err != nil {
			continue
		}
		st.relays++
	}
}

// fraMetrics is FRA's observability surface. The zero value (from a nil
// registry) is fully inert through the obs nil fast path, so the
// refinement loop mutates it unconditionally.
type fraMetrics struct {
	runs        *obs.Counter   // fra_runs_total
	refined     *obs.Counter   // fra_refined_total
	relays      *obs.Counter   // fra_relays_total
	banned      *obs.Counter   // fra_banned_total (duplicate-insert rejections)
	attempts    *obs.Counter   // fra_refine_attempts_total (argmax candidates tried)
	prefix      *obs.Counter   // fra_prefix_picks_total (picks taken from a trajectory)
	runSeconds  *obs.Histogram // fra_run_seconds
	relayBudget *obs.Gauge     // fra_relay_budget: nodes spendable after the next pick
	relayBill   *obs.Gauge     // fra_relay_bill: relays the oracle currently demands
}

func newFRAMetrics(reg *obs.Registry) fraMetrics {
	if reg == nil {
		return fraMetrics{}
	}
	return fraMetrics{
		runs:        reg.Counter("fra_runs_total"),
		refined:     reg.Counter("fra_refined_total"),
		relays:      reg.Counter("fra_relays_total"),
		banned:      reg.Counter("fra_banned_total"),
		attempts:    reg.Counter("fra_refine_attempts_total"),
		prefix:      reg.Counter("fra_prefix_picks_total"),
		runSeconds:  reg.Histogram("fra_run_seconds", nil),
		relayBudget: reg.Gauge("fra_relay_budget"),
		relayBill:   reg.Gauge("fra_relay_bill"),
	}
}

// nextRefinement scans lattice positions in decreasing local-error order
// and returns the best position whose addition keeps the relay bill within
// budgetAfter (checked through the oracle; a nil oracle means the budget
// is unconstrained), and that bill (0 without an oracle). ok is false
// when no position qualifies. Local errors
// are highly peaked, so trying candidates in argmax order converges after
// a handful of attempts in practice; the attempt budget bounds the worst
// case. The first attempt reads the argmax from the grid's row maxima
// when nothing is banned; later attempts scan the grid. tried is
// caller-owned scratch, cleared here, so steady-state refinement
// allocates nothing per attempt.
func nextRefinement(g *surface.LocalErrorGrid, oracle *graph.RelayOracle, selectedSet, banned, tried map[geom.Vec2]bool, budgetAfter int, attempts *obs.Counter) (p geom.Vec2, bill int, ok bool) {
	n := g.N()
	clear(tried)
	const maxAttempts = 64
	for attempt := 0; attempt < maxAttempts; attempt++ {
		attempts.Inc()
		bestE := -1.0
		var bestP geom.Vec2
		if i, j, e, ok := g.MaxNode(); ok && attempt == 0 && len(banned) == 0 {
			bestE, bestP = e, g.Pos(i, j)
		} else {
			for i := 0; i <= n; i++ {
				for j := 0; j <= n; j++ {
					e := g.Err(i, j)
					if e <= bestE {
						continue
					}
					// Only the running maximum pays for the position lookup
					// and the exclusion checks.
					p := g.Pos(i, j)
					if banned[p] || tried[p] {
						continue
					}
					bestE, bestP = e, p
				}
			}
		}
		if bestE < 0 {
			return geom.Vec2{}, 0, false
		}
		tried[bestP] = true
		if selectedSet[bestP] {
			continue
		}
		// Affordability check: would connectivity still be payable after
		// adding this node?
		if oracle == nil {
			return bestP, 0, true
		}
		if bill := oracle.RelaysWith(bestP); bill <= budgetAfter {
			return bestP, bill, true
		}
	}
	return geom.Vec2{}, 0, false
}

// RandomPlacement returns the paper's baseline: k positions drawn
// uniformly at random over the region (Fig. 7's "random" curve).
func RandomPlacement(region geom.Rect, k int, seed int64) Placement {
	return Placement{Nodes: field.RandomPositions(region, k, seed)}
}

// UniformPlacement returns k positions on a centered grid — the uniform
// distribution of the paper's Fig. 3(b).
func UniformPlacement(region geom.Rect, k int) Placement {
	return Placement{Nodes: field.GridLayout(region, k)}
}

// Evaluation scores a placement against a reference field.
type Evaluation struct {
	// Delta is the paper's δ: the integrated absolute difference between
	// the reference surface and the Delaunay reconstruction from the
	// placement's samples (Theorem 3.1).
	Delta float64
	// Connected reports whether the node graph at radius Rc is connected.
	Connected bool
	// Components is the number of connected components at radius Rc.
	Components int
	// MeanDegree is the average node degree at radius Rc.
	MeanDegree float64
}

// Evaluate samples f at the placement's nodes (plus anchors), rebuilds the
// surface by Delaunay interpolation and computes δ on an n-division
// lattice, along with connectivity statistics at radius rc.
func Evaluate(f field.Field, p Placement, rc float64, n int) (Evaluation, error) {
	if len(p.Nodes) == 0 {
		return Evaluation{}, fmt.Errorf("%w: empty placement", ErrBadParams)
	}
	samples := make([]field.Sample, 0, len(p.Nodes)+len(p.Anchors))
	for _, pos := range p.Anchors {
		samples = append(samples, field.Sample{Pos: pos, Z: f.Eval(pos)})
	}
	for _, pos := range p.Nodes {
		samples = append(samples, field.Sample{Pos: pos, Z: f.Eval(pos)})
	}
	delta, err := surface.DeltaSamples(f, samples, n)
	if err != nil {
		return Evaluation{}, fmt.Errorf("core: evaluate placement: %w", err)
	}
	g := graph.NewUnitDisk(p.Nodes, rc)
	deg := 0
	for i := 0; i < g.N(); i++ {
		deg += g.Degree(i)
	}
	ev := Evaluation{
		Delta:      delta,
		Connected:  g.Connected(),
		Components: g.NumComponents(),
	}
	if g.N() > 0 {
		ev.MeanDegree = float64(deg) / float64(g.N())
	}
	return ev, nil
}
