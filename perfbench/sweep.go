package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/sweep"
)

// sweepWorkers is the worker-pool size: one per core of the 2-core
// reference host.
const sweepWorkers = 2

// sweepSpec is the fixed grid of sweep_grid: two plain fields, a
// splitting plume and an inline trace; two k, with Rc large enough that
// the grid-laid swarms are connected and the faulty Exchange path has
// links to drop; fra, lloyd and density; faults {0, 0.2}; two seeds;
// random baselines and a mobile phase. The workload seed picks the two
// cell seeds, which drive the random baselines and the density
// placement; the fault stream and every other coordinate are fixed, so
// that seeds differ in inputs but not in cost mix.
func sweepSpec(seed int64, tiny bool) sweep.Spec {
	rng := rand.New(rand.NewSource(seed))
	s := sweep.Spec{
		Name:        fmt.Sprintf("perfbench-%d", seed),
		Fields:      []sweep.FieldSpec{{Kind: "forest"}, {Kind: "peaks"}},
		DynFields:   []sweep.DynFieldSpec{{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 4}},
		Traces:      []sweep.TraceSpec{{Name: "trace:perfbench", Inline: traceCSV(rand.New(rand.NewSource(traceSeed)))}},
		Ks:          []int{16, 25},
		Rcs:         []float64{20},
		Strategies:  []string{"fra", "lloyd", "density"},
		Faults:      []fault.ProfileSpec{{}, {Rate: 0.2, Seed: faultSeed}},
		Seeds:       []int64{1 + rng.Int63n(1000), 1001 + rng.Int63n(1000)},
		GridN:       30,
		DeltaN:      30,
		RandomDraws: 2,
		Slots:       8,
	}
	if tiny {
		s.Ks, s.Seeds, s.Slots, s.GridN, s.DeltaN = []int{6}, s.Seeds[:1], 3, 20, 20
	}
	s.Normalize()
	return s
}

// traceSeed and faultSeed fix the inline trace and the fault stream of
// every sweep_grid spec.
const (
	traceSeed = 2010
	faultSeed = 7
)

// traceCSV is a recorded trace of eight stations at t = 0, 5 and 10 with
// seeded values, in the WriteTrace format.
func traceCSV(rng *rand.Rand) string {
	var recs []field.TraceRecord
	pts := field.RandomPositions(geom.Square(100), 8, rng.Int63())
	for _, t := range []float64{0, 5, 10} {
		for _, p := range pts {
			recs = append(recs, field.TraceRecord{T: t, Sample: field.Sample{Pos: p, Z: math.Round(rng.Float64()*200) / 100}})
		}
	}
	var b strings.Builder
	if err := field.WriteTrace(&b, recs); err != nil {
		panic(err) // a strings.Builder cannot fail
	}
	return b.String()
}

// sweepPhase is what one phase of sweep_grid measured.
type sweepPhase struct {
	wallMs []float64
	alloc  uint64
	cells  int
	failed int
	hashes []uint64
	first  *sweep.Report // the first pass, whose op ids are the cell indices
	reg    *obs.Registry
	runs   int
}

// runSweep runs sweep.Run over the fixed spec with two workers and a
// checkpoint file, the batch path cmd/sweep and dsweep workers share.
// Every pass must produce a byte-identical aggregated report.
func runSweep(o options) (*outcome, error) {
	spec := sweepSpec(o.seed, o.tiny)
	ckpt := filepath.Join(o.out, fmt.Sprintf("sweep-%d.ckpt", o.seed))
	out := newOutcome()
	setup, err := sweepSetup(spec, 3)
	if err != nil {
		return nil, err
	}
	base, err := sweepRuns(spec, ckpt, phaseDur(o), nil)
	if err != nil {
		return nil, err
	}
	phases := []*sweepPhase{base}
	if !o.trace {
		m := out.metrics
		m["setup_s"] = quantile(setup, 0.5)
		m["latency_p50_ms"] = quantile(base.wallMs, 0.5)
		m["latency_p99_ms"] = quantile(base.wallMs, 0.99)
		m["throughput_per_s"] = float64(base.cells) / (sum(base.wallMs) / 1e3)
		m["alloc_mb_per_op"] = float64(base.alloc) / 1e6 / float64(base.cells)
		out.note("sweep_grid: %d cells per pass, %d passes; pass p50 %.0f ms; %.1f cells/s",
			spec.NumCells(), len(base.wallMs), m["latency_p50_ms"], m["throughput_per_s"])
	} else {
		out.tr = newTracer()
		tp, err := sweepRuns(spec, ckpt, phaseDur(o), out.tr)
		if err != nil {
			return nil, err
		}
		phases = append(phases, tp)
		if err := sweepDirect(out, &spec, tp); err != nil {
			return nil, err
		}
		sweepLayers(out, &spec, base, tp)
	}
	h0 := base.hashes[0]
	same := true
	for _, p := range phases {
		out.attempted += p.cells
		out.failed += p.failed
		for _, h := range p.hashes {
			same = same && h == h0
		}
	}
	out.check("sweep report hash", same, "report hash %016x across passes", h0)
	sumD := 0.0
	for _, r := range base.first.Cells {
		ok := finite(r.Delta) && finite(r.DeltaRandom)
		if r.Mobile != nil {
			ok = ok && finite(r.Mobile.DeltaEnd) && finite(r.Mobile.DeltaMean)
		}
		out.check("finite delta", ok, "cell %d: %g", r.Index, r.Delta)
		sumD += r.Delta
	}
	if !o.trace {
		out.metrics["delta"] = sumD / float64(len(base.first.Cells))
	}
	out.check("no failed cells", out.failed == 0, "%d of %d cells failed", out.failed, out.attempted)
	return out, nil
}

// sweepSetup times the sweep's set-up n times: spec validation and
// digest, every environment build, and one warm-up cell.
func sweepSetup(spec sweep.Spec, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		_ = spec.SpecDigest()
		cells := spec.Cells()
		seen := make(map[string]bool)
		for _, c := range cells {
			if l := c.EnvLabel(); !seen[l] {
				seen[l] = true
				if _, err := c.BuildEnv(); err != nil {
					return nil, err
				}
			}
		}
		if r := sweep.RunCell(&spec, cells[0], nil); r.Err != "" {
			return nil, fmt.Errorf("warm-up cell: %s", r.Err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// sweepRuns repeats whole sweep passes for d: sweep.Run untraced, or the
// traced pool with spans around every cell and checkpoint append.
func sweepRuns(spec sweep.Spec, ckpt string, d time.Duration, tr *tracer) (*sweepPhase, error) {
	ph := &sweepPhase{reg: obs.NewRegistry()}
	err := repeatFor(d, 2, func(run int) error {
		a0 := allocBytes()
		t0 := time.Now()
		var rep *sweep.Report
		var err error
		if tr == nil {
			rep, err = sweep.Run(spec, sweep.RunOptions{Workers: sweepWorkers, Checkpoint: ckpt, Metrics: ph.reg})
		} else {
			rep, err = tracedSweep(spec, ckpt, ph.reg, tr, int64(run)<<20)
		}
		if err != nil {
			return err
		}
		ph.wallMs = append(ph.wallMs, float64(time.Since(t0))/1e6)
		ph.alloc += allocBytes() - a0
		ph.cells += len(rep.Cells)
		ph.failed += rep.Failed + rep.Total - len(rep.Cells)
		ph.runs++
		var b bytes.Buffer
		if err := sweep.WriteJSON(&b, rep); err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(b.Bytes())
		ph.hashes = append(ph.hashes, h.Sum64())
		if run == 0 {
			ph.first = rep
		}
		return nil
	})
	return ph, err
}

// tracedSweep is sweep.Run's pool made visible: sweepWorkers workers pull
// cells from a shared cursor, run each through sweep.RunCell and append
// it to the checkpoint, under spans. Its report must match sweep.Run's.
func tracedSweep(spec sweep.Spec, path string, reg *obs.Registry, tr *tracer, op int64) (*sweep.Report, error) {
	cells := spec.Cells()
	ckpt, err := sweep.NewCheckpointWriter(path, spec.SpecDigest(), false)
	if err != nil {
		return nil, err
	}
	results := make([]sweep.Result, len(cells))
	done := make([]bool, len(cells))
	errs := make([]error, len(cells))
	root := tr.begin("sweep.run", op, 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				id := tr.begin("sweep.cell", op|int64(i), root)
				r := sweep.RunCell(&spec, cells[i], reg)
				tr.end(id)
				id = tr.begin("sweep.checkpoint", op|int64(i), root)
				errs[i] = ckpt.Append(r)
				tr.end(id)
				results[i], done[i] = r, true
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	cerr := ckpt.Close()
	for _, err := range append(errs, cerr) {
		if err != nil {
			return nil, err
		}
	}
	return sweep.NewReport(&spec, results, done), nil
}

// sweepDirect replays every cell's static phase of the first traced pass
// through the public layers — environment build, strategy placement,
// core.Evaluate — under spans, and checks δ against the cell's result.
func sweepDirect(out *outcome, spec *sweep.Spec, tp *sweepPhase) error {
	tr := out.tr
	mismatch := 0
	for _, c := range spec.Cells() {
		op := int64(c.Index)
		root := tr.begin("sweep.direct", op, 0)
		id := tr.begin("sweep.env", op, root)
		dyn, err := c.BuildEnv()
		tr.end(id)
		if err != nil {
			return err
		}
		ref := field.Slice(dyn, 0)
		placer, err := strategy.LookupPlacement(c.Strategy)
		if err != nil {
			return err
		}
		id = tr.begin("strategy.place", op, root)
		p, err := placer.Place(ref, strategy.PlaceOptions{K: c.K, Rc: c.Rc, GridN: spec.GridN, Seed: c.Seed})
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("surface.evaluate", op, root)
		ev, err := core.Evaluate(ref, p, c.Rc, spec.DeltaN)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
		if math.Float64bits(ev.Delta) != math.Float64bits(tp.first.Cells[c.Index].Delta) {
			mismatch++
		}
	}
	out.check("direct static δ", mismatch == 0, "%d of %d cells differ from the direct computation", mismatch, spec.NumCells())
	return nil
}

// sweepLayers derives sweep_grid's per-layer metrics from the traced
// passes' spans and the registry every cell reported into.
func sweepLayers(out *outcome, spec *sweep.Spec, base, tp *sweepPhase) {
	st := out.tr.stats()
	m := out.metrics
	reg := tp.reg
	slots := float64(reg.Counter("engine_slots_total").Value())
	stageSum := 0.0
	for _, s := range engine.DefaultStages() {
		v := reg.Histogram("engine_stage_seconds_"+s.Name(), nil).Sum()
		m["engine."+s.Name()+"_ms"] = 1e3 * ratio(v, slots)
		stageSum += v
	}
	m["engine.slot_other_ms"] = 1e3 * ratio(reg.Histogram("engine_step_seconds", nil).Sum()-stageSum, slots)
	reused := float64(reg.Counter("engine_neighbor_lists_reused_total").Value())
	recomp := float64(reg.Counter("engine_neighbor_lists_recomputed_total").Value())
	m["engine.neighbor_reuse_share"] = ratio(reused, reused+recomp)
	m["engine.index_rebuilds"] = ratio(float64(reg.Counter("engine_index_rebuilds_total").Value()), slots)
	nodeSlots := 0.0
	for _, c := range spec.Cells() {
		nodeSlots += float64(c.K * spec.Slots)
	}
	m["mobile.moved_share"] = ratio(float64(reg.Counter("engine_moved_total").Value()), nodeSlots*float64(tp.runs))
	fra := reg.Histogram("fra_run_seconds", nil)
	m["core.fra_ms"] = 1e3 * ratio(fra.Sum(), float64(fra.Count()))
	refined := float64(reg.Counter("fra_refined_total").Value())
	relays := float64(reg.Counter("fra_relays_total").Value())
	m["core.fra_attempts_per_pick"] = ratio(float64(reg.Counter("fra_refine_attempts_total").Value()), refined)
	m["core.relay_share"] = ratio(relays, refined+relays)
	m["strategy.place_ms"] = meanDur(st, "strategy.place")
	m["surface.evaluate_ms"] = meanDur(st, "surface.evaluate")
	m["sim.delta_evals"] = ratio(float64(reg.Counter("sim_delta_evals_total").Value()), float64(tp.cells))
	busy := 0.0
	if c := st["sweep.cell"]; c != nil {
		busy = sum(c.durMs)
		m["sweep.cell_p50_ms"] = quantile(c.durMs, 0.5)
		m["sweep.cell_max_ms"] = quantile(c.durMs, 1)
	}
	if r := st["sweep.run"]; r != nil {
		m["sweep.busy_share"] = ratio(busy, sweepWorkers*sum(r.durMs))
	}
	m["sweep.checkpoint_ms"] = meanDur(st, "sweep.checkpoint")
	m["fault.deaths"] = ratio(float64(reg.Counter("fault_deaths_total").Value()), float64(tp.runs))
	m["fault.link_drops"] = ratio(float64(reg.Counter("fault_link_drops_total").Value()), float64(tp.runs))
	baseRate := float64(base.cells) / sum(base.wallMs)
	m["trace_overhead_share"] = baseRate/(float64(tp.cells)/sum(tp.wallMs)) - 1
	out.note("sweep_grid traced: %d passes; engine stages %.3f ms + other %.3f ms per slot over %.0f slots",
		tp.runs, 1e3*ratio(stageSum, slots), m["engine.slot_other_ms"], slots)
}
