package sweep

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/surface"
)

// Result is one cell's outcome. Every field is deterministic given the
// cell's digest inputs; no wall-clock or host state leaks in, which is
// what makes aggregated output byte-comparable across runs, worker counts
// and checkpoint replays.
type Result struct {
	// Index and Digest identify the cell within its spec.
	Index  int    `json:"index"`
	Digest string `json:"digest"`
	// Field, K, Rc, Strategy, FaultRate and Seed echo the cell
	// coordinates.
	Field     string  `json:"field"`
	K         int     `json:"k"`
	Rc        float64 `json:"rc"`
	Strategy  string  `json:"strategy"`
	FaultRate float64 `json:"fault_rate"`
	Seed      int64   `json:"seed"`

	// Delta is δ of the cell's placement strategy on the reference field,
	// with Refined/Relays/Connected breaking the placement down
	// (strategy-specific bookkeeping; relays are FRA-only).
	Delta     float64 `json:"delta"`
	Refined   int     `json:"refined"`
	Relays    int     `json:"relays"`
	Connected bool    `json:"connected"`
	// DeltaRandom is the random-deployment baseline averaged over the
	// spec's RandomDraws (absent when draws are off).
	DeltaRandom float64 `json:"delta_random,omitempty"`

	// Mobile holds the movement-under-faults phase when Spec.Slots > 0,
	// driven by the strategy's movement phase (CMA unless the strategy
	// registers its own — see strategy.MovementFor).
	Mobile *MobileResult `json:"mobile,omitempty"`

	// Err is the cell's failure, if any: a failed cell is isolated — it
	// is recorded, counted, and checkpointed like any other result, and
	// never takes the sweep down with it.
	Err string `json:"error,omitempty"`
}

// MobileResult is the mobile (movement strategy + fault injection) phase
// of a cell: the run's eval.DegradationRow, whose Rate the cell records as
// FaultRate, and one score derived from it.
type MobileResult struct {
	eval.DegradationRow
	// DeltaPerLength is the Dutta-style tour-efficiency score: mean δ
	// normalized by mean per-node travel, DeltaMean / (1 + Energy/k).
	// The +1 meter keeps zero-travel strategies finite and comparable —
	// a strategy only scores better here by buying δ with meters.
	DeltaPerLength float64 `json:"delta_per_length"`
}

// RunCell executes one cell end to end: build the environment (plain
// field, generated dynfield, or trace replay), run the cell's placement
// strategy and its random baseline on the t = 0 reference slice, and
// (when the spec has a mobile phase) run the movement swarm
// under the cell's fault profile. A panic
// anywhere inside is converted into the cell's Err — per-cell isolation —
// so one degenerate scenario cannot abort a thousand-cell batch. It is
// exported for internal/dsweep, whose workers run leased cells through
// exactly this path so a distributed sweep's per-cell results are
// bit-identical to a local run's.
func RunCell(s *Spec, c Cell, reg *obs.Registry) Result {
	return runCell(s, c, reg, new(envCache))
}

// envCache holds the most recent environment of one Ledger.Run, shared
// by its workers and keyed by the environment part of the cell digest.
// Cells are enumerated environment-major, so the workers mostly run
// cells on the same environment; sharing it fills each reference
// lattice about once per environment instead of once per cell, while
// the cache keeps a single environment alive. Reuse changes no bit of a
// result: the built fields are immutable, and the reference returns a
// direct fill's values whenever it is filled.
type envCache struct {
	mu  sync.Mutex
	key string
	env *cellEnv
}

// cellEnv is a built environment and its t = 0 reference.
type cellEnv struct {
	dyn field.DynField
	ref *surface.Reference
}

// load returns c's environment, building it unless e holds it already.
func (e *envCache) load(c Cell) (*cellEnv, error) {
	var key strings.Builder
	c.writeEnvDigest(&key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.env != nil && e.key == key.String() {
		return e.env, nil
	}
	dyn, err := c.BuildEnv()
	if err != nil {
		return nil, err
	}
	e.key, e.env = key.String(), &cellEnv{dyn: dyn, ref: surface.NewReference(field.Slice(dyn, 0))}
	return e.env, nil
}

// drop forgets env if e still holds it.
func (e *envCache) drop(env *cellEnv) {
	e.mu.Lock()
	if e.env == env {
		e.env = nil
	}
	e.mu.Unlock()
}

// runCell is RunCell with the sweep's environment cache.
func runCell(s *Spec, c Cell, reg *obs.Registry, cache *envCache) (res Result) {
	name := c.Strategy
	if name == "" {
		name = "fra" // pre-strategy specs and checkpoints
	}
	res = Result{
		Index: c.Index, Digest: s.Digest(c),
		Field: c.EnvLabel(), K: c.K, Rc: c.Rc, Strategy: name,
		FaultRate: c.Fault.Rate, Seed: c.Seed,
	}
	var env *cellEnv
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
			cache.drop(env) // the panic may have cut a lattice fill short
		}
	}()
	env, err := cache.load(c)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	// Static phase, the Fig. 7 cell: the cell's placement strategy scored
	// by δ against the reference surface, then the random baseline.
	placer, err := strategy.LookupPlacement(name)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	p, err := placer.Place(env.ref, strategy.PlaceOptions{
		K: c.K, Rc: c.Rc, GridN: s.GridN, Seed: c.Seed, Metrics: reg,
	})
	if err != nil {
		res.Err = fmt.Sprintf("%s: %v", placer.Name(), err)
		return res
	}
	ev, err := core.Evaluate(env.ref, p, c.Rc, s.DeltaN)
	if err != nil {
		res.Err = fmt.Sprintf("evaluate %s: %v", placer.Name(), err)
		return res
	}
	res.Delta, res.Connected = ev.Delta, ev.Connected
	res.Refined, res.Relays = p.Refined, p.Relays

	if s.RandomDraws > 0 {
		sum := 0.0
		for d := 0; d < s.RandomDraws; d++ {
			delta, err := randomDraw(env.ref, c, s.DeltaN, d)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			sum += delta
		}
		res.DeltaRandom = sum / float64(s.RandomDraws)
	}

	if s.Slots > 0 {
		m, err := runMobileCell(s, c, env.dyn, reg)
		if err != nil {
			res.Err = fmt.Sprintf("mobile: %v", err)
			return res
		}
		res.Mobile = m
	}
	return res
}

// randomDraw is δ of random deployment number d (seeded c.Seed+d) of
// c.K nodes on f. The draw reuses FRA's reconstruction anchors, the
// region corners, for fairness. A cell's DeltaRandom is the mean of
// draws 0..RandomDraws-1 summed in draw order.
func randomDraw(f field.Field, c Cell, deltaN, d int) (float64, error) {
	corners := f.Bounds().Corners()
	r := core.RandomPlacement(f.Bounds(), c.K, c.Seed+int64(d))
	r.Anchors = corners[:]
	ev, err := core.Evaluate(f, r, c.Rc, deltaN)
	if err != nil {
		return 0, fmt.Errorf("evaluate random draw %d: %w", d, err)
	}
	return ev.Delta, nil
}

// runMobileCell runs the cell's movement swarm for Spec.Slots slots under
// the cell's fault profile with eval.DegradationSweep's per-rate setup
// (eval.WithFaults): grid initial layout, robust curvature fits whenever
// faults are active, and a collection tree maintained over the survivors.
// The controllers come from the cell strategy's movement phase — CMA for
// strategies without one of their own.
func runMobileCell(s *Spec, c Cell, dyn field.DynField, reg *obs.Registry) (*MobileResult, error) {
	opts := engine.DefaultOptions()
	opts.Config.Region = dyn.Bounds()
	opts.Config.Rc = c.Rc
	opts.Seed = c.Seed
	opts.Metrics = reg
	opts.NewController = strategy.MovementFor(c.Strategy).NewController
	opts = eval.WithFaults(opts, c.Fault, c.K, s.Slots, c.Seed)
	w, err := engine.New(dyn, field.GridLayout(dyn.Bounds(), c.K), opts)
	if err != nil {
		return nil, err
	}
	row, err := eval.RunDegradation(w, s.Slots, s.DeltaN)
	if err != nil {
		return nil, err
	}
	return &MobileResult{
		DegradationRow: row,
		DeltaPerLength: row.DeltaMean / (1 + row.Energy/float64(c.K)),
	}, nil
}
