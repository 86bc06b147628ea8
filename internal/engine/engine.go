// Package engine is the deterministic time-stepped simulator of the OSTD
// experiments: a swarm of mobile CPS nodes running the CMA controller over
// a time-varying field, with the paper's sensing (Rs), communication (Rc)
// and velocity (v) models. Each slot is the paper's CMA round (§OSTD,
// Table 2) as seven pluggable stages — Sense, Fit, Exchange, Plan,
// Resolve, Move, Account — run against a consistent snapshot. Beside the
// step the Engine answers the paper's δ (Delta, and DeltaTrace with
// movement-path samples), connectivity and aliveness queries.
//
// # Determinism
//
// The engine is bit-identical to the original serial step at any
// GOMAXPROCS. Per-node stages run in deterministic index bands (the same
// recipe as surface's banded Delta fills): nodes are split into fixed
// nodeBand-sized bands — a function of the node count only, never of the
// worker count — and workers pull band indices from an atomic counter.
// Every node's computation touches only its own slots of the per-step
// scratch, so band scheduling cannot change any result bit. Floating-point
// folds over nodes (mean force, displacement, energy) always run serially
// in ascending node order, because FP addition is not associative.
//
// A stage may only run its per-node body in parallel when that body is
// independent across nodes for the step's configuration:
//
//   - Sense is parallel only with zero sensing noise — field.Sampler owns
//     one shared noise RNG whose draw order is observable otherwise. (The
//     fault injector's sample corruption is always parallel-safe: it
//     derives an independent per-node stream.)
//   - Exchange is parallel only when the fault injector is inactive —
//     link-loss queries advance shared Gilbert-Elliott chain state.
//   - Fit and Plan are always parallel: a node's controller is touched by
//     that node alone, and each Fit worker owns its fit scratch.
//   - Resolve, Move and Account are inherently serial (global constraint
//     projection and ordered folds).
//
// # Alive view
//
// Each step snapshots one view.Alive (positions + alive mask + epoch)
// after the injector's slot transition and every stage consumes it; the
// fault-free path is the nil-mask view, so it is bit-identical to the
// pre-fault dynamics by construction.
//
// # Neighbor discovery
//
// Stages share one spatial.Index over the current positions instead of
// building a full communication graph every slot. It is re-indexed in
// place once per position epoch, and Exchange queries every node's
// neighbor list afresh each slot: nodes move nearly every slot, so no list
// is kept across slots. Membership is Dist² ≤ Rc² at every swarm size, the
// same predicate graph.NewUnitDisk applies.
//
// # Shared sensing lattice
//
// Neighbouring sensing discs cover the same lattice points. On noiseless
// slots whose sensing box holds no more points than the discs read, Sense
// evaluates the field once per integer point of the box (see
// shareLattice). That shares arithmetic, not information, and is
// bit-identical to per-node sensing. Every peak fit reads only the node's
// own samples (curvature.Fitter.Peak).
package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bands"
	"repro/internal/curvature"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
	"repro/internal/obs"
	"repro/internal/spatial"
	"repro/internal/surface"
	"repro/internal/view"
)

// ErrNoNodes is returned when an engine is created without nodes.
var ErrNoNodes = errors.New("engine: no nodes")

// StepStats summarizes one simulation slot.
type StepStats struct {
	// T is the world time in minutes after the step.
	T float64
	// Moved is the number of nodes that moved under CMA this slot.
	Moved int
	// Followed is the number of LCM follow moves this slot.
	Followed int
	// MeanForce is the mean |Fs| over all nodes.
	MeanForce float64
	// MeanDisplacement is the mean distance moved this slot.
	MeanDisplacement float64
	// EnergySpent is the total movement energy this slot under a
	// unit-per-meter locomotion model — the quantity behind the paper's
	// "energy is sufficient for the movement" assumption.
	EnergySpent float64
	// Alive is the number of nodes up during this slot (the node count
	// when no fault injector is attached).
	Alive int
}

// Options configures an engine.
type Options struct {
	// Config is the per-node CMA configuration.
	Config mobile.Config
	// NoiseStd is the sensing noise standard deviation.
	NoiseStd float64
	// Seed drives the sensing noise.
	Seed int64
	// SlotMinutes is the duration of one time slot; 0 defaults to 1.
	SlotMinutes float64
	// Trace configures movement-path sampling (the paper's future-work
	// extension; see TraceOptions).
	Trace TraceOptions
	// Faults optionally injects node crashes, link loss and sensing
	// faults (see internal/fault). nil — or an injector whose Config is
	// inert — leaves the run bit-identical to a fault-free one. The
	// injector must be built for exactly the engine's node count and must
	// not be shared between engines.
	Faults *fault.Injector
	// NewController builds each node's movement planner; nil means
	// mobile.DefaultFactory — the paper's CMA controller — which keeps the
	// default pipeline bit-identical to the pre-interface engine. Movement
	// strategies (internal/strategy) plug in here: the Plan stage is
	// constructed from whatever Planner the factory returns.
	NewController mobile.ControllerFactory
	// Stages overrides the step pipeline; nil means DefaultStages().
	Stages []Stage
	// Metrics, when non-nil, receives per-stage and per-slot wall-time
	// histograms, step-statistic counters and gauges, and the per-round
	// gauges sim_delta and sim_delta_evals_total (every Delta),
	// sim_connected and sim_connectivity_checks_total (every Connected),
	// and sim_coverage / sim_alive_fraction refreshed each step (see
	// engineMetrics). An attached fault injector reports its event
	// counters to the same registry. Instrumentation only observes — it
	// never perturbs the dynamics — and nil keeps the hot path clock-free.
	Metrics *obs.Registry
}

// DefaultOptions returns the paper's Section 6 OSTD settings.
func DefaultOptions() Options {
	return Options{Config: mobile.DefaultConfig(), SlotMinutes: 1}
}

// Engine advances a swarm of CMA nodes one slot at a time by running its
// stage pipeline over shared per-step state.
type Engine struct {
	dyn     field.DynField
	opts    Options
	ctrl    []mobile.Planner
	pos     []geom.Vec2
	sampler *field.Sampler
	t       float64
	slot    int
	energy  []float64 // cumulative movement energy per node
	// heard is each node's last-received neighbor reports ascending by
	// neighbor ID, used to replay stale entries when a delivery is lost or
	// a neighbor dies. Only populated while the fault injector is active.
	// heardMerge and staleBuf are shared merge scratch — safe because the
	// faulty exchange path is serial.
	heard      [][]heardEntry
	heardMerge []heardEntry
	staleBuf   []mobile.NeighborInfo
	stages     []Stage

	// arena is the persistent backing for the per-slot Slot scratch, reset
	// with capacity-preserving truncation each Step so the steady state
	// allocates nothing. spare is the free position buffer of the
	// double-buffered commit: Move publishes s.Next and recycles the
	// previous position array as the next slot's tentative buffer.
	arena slotArena
	spare []geom.Vec2
	// fitters is the Fit stage's per-worker curvature fit scratch; entry w
	// is touched only by forNodes worker w, and scratch location cannot
	// affect any fit bit.
	fitters []*curvature.Fitter
	// lcm is the Resolve stage's reusable constraint-projection scratch.
	lcm mobile.LCMScratch

	// lattice is the shared sensing lattice of the slot (see
	// shareLattice): the field values at every integer point of the alive
	// swarm's sensing box.
	lattice field.Lattice

	// idx is the shared neighbor-discovery index over pos, re-indexed in
	// place whenever epoch has advanced past idxEpoch; epoch bumps at every
	// position commit. nbrLists[i] is node i's unit-disk neighbor list for
	// the current slot, recomputed by every Exchange.
	idx      *spatial.Index
	idxEpoch int
	epoch    int
	nbrLists [][]int

	// trace holds the movement-path samples; nil unless Options.Trace is
	// enabled.
	trace *traceStore

	// met is the engine's observability surface; nil means off, and every
	// instrumentation site is guarded so the disabled path never reads the
	// clock.
	met *engineMetrics
}

// slotArena is the persistent backing of the Slot scratch, indexed by
// node. Per-node sub-buffers (samples, infos) keep their grown capacity
// across slots.
type slotArena struct {
	samples   [][]field.Sample
	curv      []float64
	infos     [][]mobile.NeighborInfo
	decisions []mobile.Decision
	forceLen  []float64
	// aliveMask is the alive mask of the last faulty Step; nil means every
	// node is up, as on the fault-free path and before the first Step.
	// Aliveness changes only at the injector's BeginSlot, so the engine's
	// readers between Steps use it instead of asking the injector again.
	aliveMask []bool
}

// engineMetrics holds the engine's pre-resolved metric handles, looked up
// once at construction so the per-slot path does no registry work.
type engineMetrics struct {
	step     *obs.Histogram   // engine_step_seconds: whole-slot wall time
	stages   []*obs.Histogram // engine_stage_seconds_<name>, aligned with Engine.stages
	slots    *obs.Counter     // engine_slots_total
	moved    *obs.Counter     // engine_moved_total
	followed *obs.Counter     // engine_lcm_follows_total
	reverts  *obs.Counter     // engine_lcm_reverts_total
	alive    *obs.Gauge       // engine_alive
	force    *obs.Gauge       // engine_mean_force
	disp     *obs.Gauge       // engine_mean_displacement
	energy   *obs.Gauge       // engine_energy_total (cumulative meters)

	idxRebuilds *obs.Counter // engine_index_rebuilds_total: index builds

	delta      *obs.Gauge   // sim_delta: last evaluated δ
	deltaEvals *obs.Counter // sim_delta_evals_total
	connected  *obs.Gauge   // sim_connected: 1 or 0 at the last check
	connChecks *obs.Counter // sim_connectivity_checks_total
	coverage   *obs.Gauge   // sim_coverage: nominal sensing-disc coverage
	aliveFrac  *obs.Gauge   // sim_alive_fraction
}

func newEngineMetrics(reg *obs.Registry, stages []Stage) *engineMetrics {
	m := &engineMetrics{
		step:     reg.Histogram("engine_step_seconds", nil),
		slots:    reg.Counter("engine_slots_total"),
		moved:    reg.Counter("engine_moved_total"),
		followed: reg.Counter("engine_lcm_follows_total"),
		reverts:  reg.Counter("engine_lcm_reverts_total"),
		alive:    reg.Gauge("engine_alive"),
		force:    reg.Gauge("engine_mean_force"),
		disp:     reg.Gauge("engine_mean_displacement"),
		energy:   reg.Gauge("engine_energy_total"),

		idxRebuilds: reg.Counter("engine_index_rebuilds_total"),

		delta:      reg.Gauge("sim_delta"),
		deltaEvals: reg.Counter("sim_delta_evals_total"),
		connected:  reg.Gauge("sim_connected"),
		connChecks: reg.Counter("sim_connectivity_checks_total"),
		coverage:   reg.Gauge("sim_coverage"),
		aliveFrac:  reg.Gauge("sim_alive_fraction"),
	}
	m.stages = make([]*obs.Histogram, len(stages))
	for i, st := range stages {
		m.stages[i] = reg.Histogram("engine_stage_seconds_"+st.Name(), nil)
	}
	return m
}

// record folds one finished slot's statistics into the metric set.
func (e *Engine) record(s *Slot) {
	m := e.met
	m.slots.Inc()
	m.moved.Add(int64(s.Stats.Moved))
	m.followed.Add(int64(s.Stats.Followed))
	m.alive.Set(float64(s.Stats.Alive))
	m.force.Set(s.Stats.MeanForce)
	m.disp.Set(s.Stats.MeanDisplacement)
	m.energy.Add(s.Stats.EnergySpent)
	m.aliveFrac.Set(float64(s.Stats.Alive) / float64(e.N()))
	// Nominal sensing coverage: the alive swarm's total disc area over the
	// region area, capped at 1 — a cheap upper bound that tracks deaths
	// without integrating disc overlaps.
	if area := e.dyn.Bounds().Area(); area > 0 {
		rs := e.opts.Config.Rs
		m.coverage.Set(math.Min(1, float64(s.Stats.Alive)*math.Pi*rs*rs/area))
	}
}

// heardEntry caches one received (position, G) announcement. A node's
// cache is kept ascending by neighbor ID so the per-slot refresh is a
// linear merge with the (ascending) fresh deliveries instead of map
// traffic.
type heardEntry struct {
	id   int32
	pos  geom.Vec2
	g    float64
	slot int
}

// staleSlots is how many slots a node keeps using a silent neighbor's last
// report before presuming it dead and dropping it from the F2/LCM terms.
const staleSlots = 3

// mergeHeard folds this slot's fresh deliveries to node i (s.Infos[i],
// ascending by ID, Age 0) into the node's heard cache and interleaves the
// replayed stale reports — cached entries whose neighbor went silent this
// slot and is not yet presumed dead — back into s.Infos[i], preserving
// ascending ID order throughout. One linear merge replaces the former
// per-slot map build + sort: fresh reports win on equal IDs, silent
// entries older than staleSlots are dropped, and the resulting Infos
// content is identical to the map-based path (IDs are unique, so the
// sorted order is fully determined). Runs only on the
// faulty exchange path, which is serial, so the engine-level merge
// scratch is safe to share across nodes.
func (e *Engine) mergeHeard(s *Slot, i int) {
	fresh := s.Infos[i]
	old := e.heard[i]
	merged := e.heardMerge[:0]
	stale := e.staleBuf[:0]
	fi, oi := 0, 0
	for fi < len(fresh) || oi < len(old) {
		switch {
		case oi >= len(old) || (fi < len(fresh) && fresh[fi].ID < int(old[oi].id)):
			nb := fresh[fi]
			merged = append(merged, heardEntry{id: int32(nb.ID), pos: nb.Pos, g: nb.G, slot: s.Epoch})
			fi++
		case fi >= len(fresh) || int(old[oi].id) < fresh[fi].ID:
			rec := old[oi]
			oi++
			age := s.Epoch - rec.slot
			if age > staleSlots {
				continue // presumed dead: drop from the cache
			}
			merged = append(merged, rec)
			stale = append(stale, mobile.NeighborInfo{
				ID: int(rec.id), Pos: rec.pos, G: rec.g, Age: age,
			})
		default: // heard again this slot: the fresh report wins
			nb := fresh[fi]
			merged = append(merged, heardEntry{id: int32(nb.ID), pos: nb.Pos, g: nb.G, slot: s.Epoch})
			fi++
			oi++
		}
	}
	e.heard[i] = append(e.heard[i][:0], merged...)
	if len(stale) > 0 {
		// Backward-merge the (ascending) stale replays into the
		// (ascending) fresh list: grow Infos, then fill from the tail.
		f := len(fresh)
		s.Infos[i] = append(s.Infos[i], stale...)
		out := s.Infos[i]
		k, a, b := len(out)-1, f-1, len(stale)-1
		for b >= 0 {
			if a >= 0 && out[a].ID > stale[b].ID {
				out[k] = out[a]
				a--
			} else {
				out[k] = stale[b]
				b--
			}
			k--
		}
	}
	e.heardMerge = merged[:0]
	e.staleBuf = stale[:0]
}

// CheckNoise refuses a sensing-noise standard deviation that is negative,
// infinite or NaN; New applies it to Options.NoiseStd.
func CheckNoise(std float64) error {
	if !(std >= 0) || math.IsInf(std, 1) {
		return fmt.Errorf("engine: sensing noise std %v is not finite and non-negative", std)
	}
	return nil
}

// New creates an engine with nodes at the given initial positions
// (clamped to the field bounds).
func New(dyn field.DynField, positions []geom.Vec2, opts Options) (*Engine, error) {
	if len(positions) == 0 {
		return nil, ErrNoNodes
	}
	if opts.SlotMinutes <= 0 {
		opts.SlotMinutes = 1
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := CheckNoise(opts.NoiseStd); err != nil {
		return nil, err
	}
	if opts.Faults != nil && opts.Faults.N() != len(positions) {
		return nil, fmt.Errorf("engine: fault injector built for %d nodes, world has %d",
			opts.Faults.N(), len(positions))
	}
	// Validate admits only a positive, finite Rc, so this cannot fail.
	idx, err := spatial.NewIndex(nil, opts.Config.Rc)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{
		dyn:      dyn,
		opts:     opts,
		pos:      append([]geom.Vec2(nil), positions...),
		sampler:  field.NewSampler(opts.NoiseStd, opts.Seed),
		stages:   opts.Stages,
		idx:      idx,
		idxEpoch: -1,
		nbrLists: make([][]int, len(positions)),
	}
	if e.stages == nil {
		e.stages = DefaultStages()
	}
	if opts.Trace.Enabled {
		e.trace = newTraceStore(opts.Trace)
	}
	if opts.Metrics != nil {
		e.met = newEngineMetrics(opts.Metrics, e.stages)
		if opts.Faults != nil {
			opts.Faults.SetMetrics(opts.Metrics)
		}
	}
	e.energy = make([]float64, len(e.pos))
	newCtrl := opts.NewController
	if newCtrl == nil {
		newCtrl = mobile.DefaultFactory
	}
	region := dyn.Bounds()
	for i := range e.pos {
		e.pos[i] = region.ClampPoint(e.pos[i])
		c, err := newCtrl(i, opts.Config)
		if err != nil {
			return nil, fmt.Errorf("engine: controller %d: %w", i, err)
		}
		e.ctrl = append(e.ctrl, c)
	}
	return e, nil
}

// N returns the number of nodes.
func (e *Engine) N() int { return len(e.pos) }

// Time returns the current world time in minutes.
func (e *Engine) Time() float64 { return e.t }

// SlotIndex returns the number of completed slots.
func (e *Engine) SlotIndex() int { return e.slot }

// Pos returns the live position slice as a read-only borrow. It is
// replaced wholesale at each commit, and the displaced array is recycled
// as the tentative buffer of the slot after next — so the borrow is only
// stable until the next Step. Callers that hold positions across steps
// must use Positions.
func (e *Engine) Pos() []geom.Vec2 { return e.pos }

// Positions returns a copy of the current node positions.
func (e *Engine) Positions() []geom.Vec2 {
	return append([]geom.Vec2(nil), e.pos...)
}

// TotalEnergy returns the cumulative movement energy of the whole swarm.
func (e *Engine) TotalEnergy() float64 {
	s := 0.0
	for _, v := range e.energy {
		s += v
	}
	return s
}

// Injector returns the attached fault injector, or nil.
func (e *Engine) Injector() *fault.Injector { return e.opts.Faults }

// Rc returns the engine's communication radius — the Config.Rc every
// connectivity and collection-tree decision in this swarm uses. Harnesses
// that maintain network structures alongside an engine (tree repair,
// sweep cells at non-default radii) must test links at this radius rather
// than re-deriving it from the default configuration.
func (e *Engine) Rc() float64 { return e.opts.Config.Rc }

// AliveMask returns a copy of the aliveness of every node (all true
// without an active injector).
func (e *Engine) AliveMask() []bool {
	if e.arena.aliveMask != nil {
		return slices.Clone(e.arena.aliveMask)
	}
	mask := make([]bool, e.N())
	for i := range mask {
		mask[i] = true
	}
	return mask
}

// Connected reports whether the node network is connected at Rc. Under
// faults, dead nodes neither route nor count: the induced subgraph over
// the nodes alive in the last Step is tested instead.
func (e *Engine) Connected() bool {
	ok := e.ConnectedIn(view.Alive{Pos: e.pos, Mask: e.arena.aliveMask})
	if e.met != nil {
		e.met.connChecks.Inc()
		if ok {
			e.met.connected.Set(1)
		} else {
			e.met.connected.Set(0)
		}
	}
	return ok
}

// pointSamples returns the exact readings of slice at every alive node's
// position, with room for extra more samples. Dead nodes report nothing.
func (e *Engine) pointSamples(slice field.Field, extra int) []field.Sample {
	samples := make([]field.Sample, 0, e.N()+extra)
	for i, p := range e.pos {
		if e.arena.aliveMask != nil && !e.arena.aliveMask[i] {
			continue
		}
		samples = append(samples, field.Sample{Pos: p, Z: slice.Eval(p)})
	}
	return samples
}

// Delta computes the paper's δ for the current node positions against the
// current field slice, reconstructing by Delaunay interpolation on an
// n-division lattice. With a fault injector attached, dead nodes
// contribute no samples — the reconstruction degrades to what the
// surviving swarm can actually report.
func (e *Engine) Delta(n int) (float64, error) {
	slice := field.Slice(e.dyn, e.t)
	d, err := surface.DeltaSamples(slice, e.pointSamples(slice, 0), n)
	if err != nil {
		return 0, fmt.Errorf("engine: delta: %w", err)
	}
	if e.met != nil {
		e.met.delta.Set(d)
		e.met.deltaEvals.Inc()
	}
	return d, nil
}

// Slot is the shared scratch state of one step, produced and consumed by
// the stages in pipeline order. All slices are indexed by node. Every
// slice is a borrow of the engine's persistent arena, valid only until
// Step returns: the next Step reuses the same backing arrays, so stages
// (and hooks they call) must not retain them.
type Slot struct {
	// Epoch is the slot index being simulated.
	Epoch int
	// Faulty reports whether the fault injector is active this slot.
	Faulty bool
	// Alive is the pre-move alive view: current positions plus the alive
	// mask snapshotted after the injector's slot transition (nil mask on
	// the fault-free path).
	Alive view.Alive
	// AliveCount is the number of alive nodes.
	AliveCount int
	// Samples holds each node's sensed disc (Sense). Later stages must
	// treat it as read-only: a planner may keep it from Estimate for the
	// Plan of the same slot.
	Samples [][]field.Sample
	// Curv holds each node's own curvature estimate G (Fit).
	Curv []float64
	// Infos holds each node's received neighbor reports, sorted by ID
	// (Exchange).
	Infos [][]mobile.NeighborInfo
	// Decisions holds each node's CMA movement decision (Plan).
	Decisions []mobile.Decision
	// ForceLen holds |Fs| per node (Plan), folded serially into Stats.
	ForceLen []float64
	// Next holds the tentative (Plan) then resolved (Resolve) next
	// positions, committed by Move.
	Next []geom.Vec2
	// Stats accumulates the step's statistics.
	Stats StepStats
}

// Step advances the engine by one slot by running every stage in order.
// With an active fault injector the slot degrades gracefully: dead nodes
// neither sense, transmit nor move; lost or silent neighbor reports are
// replayed from the stale cache with their age so forces decay. Without an
// injector (or with an inert one) the slot is bit-identical to the
// fault-free dynamics.
func (e *Engine) Step() (StepStats, error) {
	inj := e.opts.Faults
	s := &Slot{
		Epoch:  e.slot,
		Faulty: inj != nil && inj.Active(),
	}
	if s.Faulty {
		inj.BeginSlot(e.slot)
		if e.heard == nil {
			e.heard = make([][]heardEntry, e.N())
		}
	}
	// Snapshot the alive view once: injector aliveness only changes at
	// BeginSlot (above), so the mask holds until the next Step.
	s.Alive = view.Alive{Pos: e.pos}
	s.AliveCount = e.N()
	if s.Faulty {
		e.arena.aliveMask = inj.AliveMask(e.arena.aliveMask)
		s.Alive.Mask = e.arena.aliveMask
		s.AliveCount = inj.AliveCount()
	}
	s.Stats.Alive = s.AliveCount
	n := e.N()
	// Per-slot scratch lives in the engine's arena: slices are truncated —
	// or zeroed where stale values could leak into statistics — but keep
	// their capacity, so the steady-state step allocates nothing.
	a := &e.arena
	if len(a.curv) != n {
		a.samples = make([][]field.Sample, n)
		a.curv = make([]float64, n)
		a.infos = make([][]mobile.NeighborInfo, n)
		a.decisions = make([]mobile.Decision, n)
		a.forceLen = make([]float64, n)
	}
	for i := range a.samples {
		a.samples[i] = a.samples[i][:0]
		a.infos[i] = a.infos[i][:0]
	}
	clear(a.curv)
	clear(a.decisions)
	clear(a.forceLen)
	s.Samples = a.samples
	s.Curv = a.curv
	s.Infos = a.infos
	s.Decisions = a.decisions
	s.ForceLen = a.forceLen
	if cap(e.spare) < n {
		e.spare = make([]geom.Vec2, 0, n)
	}
	s.Next = append(e.spare[:0], e.pos...)
	if e.met == nil {
		for _, st := range e.stages {
			if err := st.Run(e, s); err != nil {
				return StepStats{}, fmt.Errorf("engine: stage %s: %w", st.Name(), err)
			}
		}
		return s.Stats, nil
	}
	stepTimer := e.met.step.StartTimer()
	for si, st := range e.stages {
		t := e.met.stages[si].StartTimer()
		err := st.Run(e, s)
		t.Stop()
		if err != nil {
			return StepStats{}, fmt.Errorf("engine: stage %s: %w", st.Name(), err)
		}
	}
	stepTimer.Stop()
	e.record(s)
	return s.Stats, nil
}

// nodeBand is the number of consecutive node indices one parallel band
// covers. Bands are a function of the node count only — never the worker
// count — so results are identical at any GOMAXPROCS.
const nodeBand = 64

// forNodes runs fn(w, i) for every node index i, where w identifies the
// executing worker (always 0 on the serial path). With parallel false — or
// a swarm of at most one band — it is a plain ascending loop. Otherwise
// the nodes run in fixed nodeBand-wide bands through bands.Run; fn must
// then only write state owned by node i or by worker w (the per-worker fit
// scratch — scratch placement cannot affect any result bit). The returned
// error is the first error in ascending node order (a band stops at its
// first error).
func (e *Engine) forNodes(parallel bool, fn func(w, i int) error) error {
	n := e.N()
	if !parallel || n <= nodeBand {
		e.ensureFitters(1)
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	e.ensureFitters(bands.Workers(n, nodeBand))
	errs := make([]error, (n+nodeBand-1)/nodeBand)
	bands.Run(n, nodeBand, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := fn(w, i); err != nil {
				errs[lo/nodeBand] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ensureFitters grows the per-worker fit-scratch pool to at least k
// entries, all built with the configuration's fit method.
func (e *Engine) ensureFitters(k int) {
	for len(e.fitters) < k {
		e.fitters = append(e.fitters, curvature.NewFitter(e.opts.Config.FitMethod()))
	}
}

// refreshIndex re-indexes the shared neighbor index over the current
// positions, once per position epoch.
func (e *Engine) refreshIndex() {
	if e.idxEpoch == e.epoch {
		return
	}
	e.idxEpoch = e.epoch
	e.idx.Reset(e.pos)
	if e.met != nil {
		e.met.idxRebuilds.Inc()
	}
}

// refreshNeighbors recomputes every node's unit-disk neighbor list over
// the current positions in parallel bands. Lists are purely geometric —
// the alive mask does not affect them — and cover every node, dead or
// alive.
func (e *Engine) refreshNeighbors() error {
	e.refreshIndex()
	return e.forNodes(true, func(w, i int) error {
		e.nbrLists[i] = e.neighborsOf(i, e.nbrLists[i][:0])
		return nil
	})
}

// neighborsOf appends to dst the unit-disk neighbors of node i at the
// engine's Rc, ascending and excluding i itself, and returns the extended
// slice. Membership is Dist² ≤ Rc², the predicate of graph.NewUnitDisk
// and of the index's Within. Callers must refreshIndex() first.
func (e *Engine) neighborsOf(i int, dst []int) []int {
	start := len(dst)
	dst = e.idx.Within(dst, e.pos[i], e.opts.Config.Rc)
	out := dst[:start]
	for _, j := range dst[start:] {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// ConnectedIn reports whether the unit-disk network over the current
// positions, induced on the alive nodes of v, is connected (empty and
// single-node networks count as connected). Only v's mask is consulted;
// the zero view is the classic all-alive query.
func (e *Engine) ConnectedIn(v view.Alive) bool {
	e.refreshIndex()
	n := e.N()
	seen := make([]bool, n)
	var queue, scratch []int
	comps := 0
	for s := 0; s < n; s++ {
		if seen[s] || !v.Up(s) {
			continue
		}
		if comps == 1 {
			return false // a second component exists
		}
		comps++
		seen[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			scratch = e.neighborsOf(u, scratch[:0])
			for _, w := range scratch {
				if v.Up(w) && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return true
}
