package sweep

import (
	"fmt"

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
func RunCell(s *Spec, c Cell, reg *obs.Registry) (res Result) {
	name := c.Strategy
	if name == "" {
		name = "fra" // pre-strategy specs and checkpoints
	}
	res = Result{
		Index: c.Index, Digest: s.Digest(c),
		Field: c.EnvLabel(), K: c.K, Rc: c.Rc, Strategy: name,
		FaultRate: c.Fault.Rate, Seed: c.Seed,
	}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	dyn, err := c.BuildEnv()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	// Static phase: the cell's placement strategy and its random baseline
	// against the reference surface — the same Fig. 7 cell eval.DeltaVsK
	// runs, so a sweep cell reproduces that series bit for bit. The
	// reference fills its lattices once for the placement and every draw.
	ref := surface.NewReference(field.Slice(dyn, 0))
	placer, err := strategy.LookupPlacement(name)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	row, err := eval.PlaceCell(ref, placer, strategy.PlaceOptions{
		K: c.K, Rc: c.Rc, GridN: s.GridN, Seed: c.Seed, Metrics: reg,
	}, s.DeltaN)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Delta = row.FRA
	res.Refined = row.Refined
	res.Relays = row.Relays
	res.Connected = row.Connected

	if s.RandomDraws > 0 {
		sum := 0.0
		for d := 0; d < s.RandomDraws; d++ {
			delta, err := eval.RandomDraw(ref, c.K, c.Rc, s.DeltaN, c.Seed, d)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			sum += delta
		}
		res.DeltaRandom = sum / float64(s.RandomDraws)
	}

	if s.Slots > 0 {
		m, err := runMobileCell(s, c, dyn, reg)
		if err != nil {
			res.Err = fmt.Sprintf("mobile: %v", err)
			return res
		}
		res.Mobile = m
	}
	return res
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
