package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
	"repro/internal/obs"
)

// swarmSize sizes swarm_track: nodes, warm-up and timed slots per run,
// and the δ lattice of the end-of-run evaluation. The warm-up slots build
// the spatial index and neighbor lists and grow the slot arena to its
// steady size, so the timed slots measure the steady state.
type swarmSize struct {
	nodes, warm, slots, deltaN int
}

func swarmSizeFor(o options) swarmSize {
	if o.tiny {
		return swarmSize{nodes: 150, warm: 2, slots: 3, deltaN: 30}
	}
	return swarmSize{nodes: 2000, warm: 8, slots: 16, deltaN: 100}
}

// swarmPhase is what one phase of swarm_track measured.
type swarmPhase struct {
	slotMs   []float64
	setupS   []float64
	alloc    uint64 // heap bytes of whole runs: engine build, warm-up, timed slots
	slots    int
	failed   int
	hashes   []uint64
	deltas   []float64
	moved    int
	alive    int
	samples  int // sensed samples, summed over slots and alive nodes
	infos    int // received neighbor reports, likewise
	reg      *obs.Registry
	slotsRun int // slots the registry saw, warm-up included
}

// runSwarm steps a 2000-node CMA swarm on the default forest from a
// uniform random layout drawn from the seed, with fault-free parallel
// Exchange. Each run builds a fresh engine and steps it a fixed number of
// slots, so every run must end in bit-identical positions and δ.
func runSwarm(o options) (*outcome, error) {
	sz := swarmSizeFor(o)
	layout := field.RandomPositions(geom.Square(100), sz.nodes, o.seed)
	out := newOutcome()
	base, err := swarmRuns(sz, layout, phaseDur(o), nil)
	if err != nil {
		return nil, err
	}
	phases := []*swarmPhase{base}
	if !o.trace {
		m := out.metrics
		m["setup_s"] = quantile(base.setupS, 0.5)
		m["latency_p50_ms"] = quantile(base.slotMs, 0.5)
		m["latency_p99_ms"] = quantile(base.slotMs, 0.99)
		m["throughput_per_s"] = float64(len(base.slotMs)) / (sum(base.slotMs) / 1e3)
		m["alloc_mb_per_op"] = float64(base.alloc) / 1e6 / float64(base.slots)
		m["delta"] = base.deltas[0]
		out.note("swarm_track: %d nodes, %d runs of %d slots; slot p50 %.1f ms over %d slots",
			sz.nodes, len(base.hashes), sz.slots, m["latency_p50_ms"], len(base.slotMs))
	} else {
		out.tr = newTracer()
		tp, err := swarmRuns(sz, layout, phaseDur(o), out.tr)
		if err != nil {
			return nil, err
		}
		phases = append(phases, tp)
		swarmLayers(out, base, tp)
	}
	for _, p := range phases {
		out.attempted += p.slots
		out.failed += p.failed
	}
	h0 := phases[0].hashes[0]
	same := true
	for _, p := range phases {
		for _, h := range p.hashes {
			same = same && h == h0
		}
		for _, d := range p.deltas {
			out.check("finite delta_end", finite(d), "%g", d)
		}
	}
	out.check("swarm output hash", same, "positions+δ hash %016x across %d runs", h0, len(phases[0].hashes))
	out.check("no step errors", out.failed == 0, "%d failed slots", out.failed)
	return out, nil
}

// swarmRuns repeats fresh-engine runs for d. With a tracer the engine
// runs with span-recording stage wrappers and a live registry.
func swarmRuns(sz swarmSize, layout []geom.Vec2, d time.Duration, tr *tracer) (*swarmPhase, error) {
	ph := &swarmPhase{}
	if tr != nil {
		ph.reg = obs.NewRegistry()
	}
	err := repeatFor(d, 2, func(run int) error {
		a0 := allocBytes()
		t0 := time.Now()
		forest := field.NewForest(field.DefaultForestConfig())
		opts := engine.Options{Config: mobile.DefaultConfig(), SlotMinutes: 1}
		var ws *stageWrap
		if tr != nil {
			ws = &stageWrap{tr: tr, ph: ph}
			opts.Stages = ws.wrap(engine.DefaultStages())
			opts.Metrics = ph.reg
		}
		eng, err := engine.New(forest, layout, opts)
		if err != nil {
			return err
		}
		if ws != nil {
			ws.counting = false
		}
		for s := 0; s < sz.warm; s++ {
			if _, err := eng.Step(); err != nil {
				return fmt.Errorf("warm-up slot: %w", err)
			}
			ph.slotsRun++
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		if ws != nil {
			ws.counting = true
		}

		for s := 0; s < sz.slots; s++ {
			op := int64(run)<<20 | int64(eng.SlotIndex())
			var id int
			if ws != nil {
				id = tr.begin("swarm.slot", op, 0)
				ws.slot, ws.op = id, op
			}
			ts := time.Now()
			st, err := eng.Step()
			dur := time.Since(ts)
			tr.end(id)
			ph.slots++
			ph.slotsRun++
			if err != nil {
				ph.failed++
				continue
			}
			ph.slotMs = append(ph.slotMs, float64(dur)/1e6)
			ph.moved += st.Moved
			ph.alive += st.Alive
		}
		ph.alloc += allocBytes() - a0

		pos := eng.Positions()
		ref := field.Slice(forest, eng.Time())
		corners := ref.Bounds().Corners()
		id := tr.begin("surface.evaluate", int64(run)<<20|0xfffff, 0)
		ev, err := core.Evaluate(ref, core.Placement{Nodes: pos, Anchors: corners[:]}, mobile.DefaultConfig().Rc, sz.deltaN)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("evaluate swarm: %w", err)
		}
		h := fnv.New64a()
		for _, p := range pos {
			fmt.Fprintf(h, "%016x%016x;", math.Float64bits(p.X), math.Float64bits(p.Y))
		}
		fmt.Fprintf(h, "delta=%016x", math.Float64bits(ev.Delta))
		ph.hashes = append(ph.hashes, h.Sum64())
		ph.deltas = append(ph.deltas, ev.Delta)
		return nil
	})
	return ph, err
}

// stageWrap wraps each engine stage in a span under the current slot
// span and reads the slot's per-node sample and neighbor counts.
type stageWrap struct {
	tr       *tracer
	ph       *swarmPhase
	slot     int
	op       int64
	counting bool
}

func (w *stageWrap) wrap(stages []engine.Stage) []engine.Stage {
	out := make([]engine.Stage, len(stages))
	for i, s := range stages {
		out[i] = tracedStage{Stage: s, w: w}
	}
	return out
}

type tracedStage struct {
	engine.Stage
	w *stageWrap
}

func (s tracedStage) Run(e *engine.Engine, sl *engine.Slot) error {
	w := s.w
	id := 0
	if w.counting {
		id = w.tr.begin("engine."+s.Name(), w.op, w.slot)
	}
	err := s.Stage.Run(e, sl)
	w.tr.end(id)
	if !w.counting {
		return err
	}
	switch s.Name() {
	case "sense":
		for _, smp := range sl.Samples {
			w.ph.samples += len(smp)
		}
	case "exchange":
		for _, inf := range sl.Infos {
			w.ph.infos += len(inf)
		}
	}
	return err
}

// swarmLayers derives swarm_track's per-layer metrics from the traced
// phase, and the tracing overhead against the untraced phase.
func swarmLayers(out *outcome, base, tp *swarmPhase) {
	st := out.tr.stats()
	m := out.metrics
	stageSum := 0.0
	for _, s := range engine.DefaultStages() {
		v := meanDur(st, "engine."+s.Name())
		m["engine."+s.Name()+"_ms"] = v
		stageSum += v
	}
	if s := st["swarm.slot"]; s != nil {
		m["engine.slot_other_ms"] = mean(s.selfMs)
		out.note("swarm_track traced: stages %.2f ms + unattributed %.2f ms = %.2f ms mean slot; traced slot p50 %.2f ms",
			stageSum, m["engine.slot_other_ms"], mean(s.durMs), quantile(tp.slotMs, 0.5))
	}
	m["engine.samples_per_node"] = ratio(float64(tp.samples), float64(tp.alive))
	m["engine.neighbors_per_node"] = ratio(float64(tp.infos), float64(tp.alive))
	reused := float64(tp.reg.Counter("engine_neighbor_lists_reused_total").Value())
	recomp := float64(tp.reg.Counter("engine_neighbor_lists_recomputed_total").Value())
	m["engine.neighbor_reuse_share"] = ratio(reused, reused+recomp)
	m["engine.index_rebuilds"] = ratio(float64(tp.reg.Counter("engine_index_rebuilds_total").Value()), float64(tp.slotsRun))
	m["mobile.moved_share"] = ratio(float64(tp.moved), float64(tp.alive))
	m["surface.evaluate_ms"] = meanDur(st, "surface.evaluate")
	m["trace_overhead_share"] = quantile(tp.slotMs, 0.5)/quantile(base.slotMs, 0.5) - 1
}
