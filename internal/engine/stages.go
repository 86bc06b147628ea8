package engine

import (
	"fmt"

	"repro/internal/mobile"
)

// Stage is one phase of the per-slot pipeline. Run reads and writes the
// shared Slot scratch; stages communicate only through it and through the
// engine's committed state.
type Stage interface {
	// Name identifies the stage in errors and diagnostics.
	Name() string
	// Run executes the stage for the current slot.
	Run(e *Engine, s *Slot) error
}

// DefaultStages returns the paper's CMA round as a stage list:
//
//	Sense → Fit → Exchange → Plan → Resolve → Move → Account
//
// The slice is fresh on every call, so callers may splice in extra stages
// without affecting other engines.
func DefaultStages() []Stage {
	return []Stage{
		SenseStage{},
		FitStage{},
		ExchangeStage{},
		PlanStage{},
		ResolveStage{},
		MoveStage{},
		AccountStage{},
	}
}

// SenseStage samples the field over each alive node's sensing disc
// (Table 2 lines 2-3) and routes the readings through the sensing-fault
// channel (dropouts, outlier spikes). Dead nodes do not sense. Parallel
// only with zero sensing noise: the sampler's noise RNG is shared, and its
// draw order is observable otherwise. On dense noiseless slots the discs
// read through the shared sensing lattice (Engine.shareLattice).
type SenseStage struct{}

// Name implements Stage.
func (SenseStage) Name() string { return "sense" }

// Run implements Stage.
func (SenseStage) Run(e *Engine, s *Slot) error {
	inj := e.opts.Faults
	dyn := e.shareLattice(s)
	return e.forNodes(e.opts.NoiseStd == 0, func(w, i int) error {
		if !s.Alive.Up(i) {
			return nil
		}
		// Samples[i] arrives truncated to length zero with its previous
		// capacity, so steady-state sensing reuses the slot arena.
		s.Samples[i] = e.sampler.DiscTimeInto(s.Samples[i], dyn, e.pos[i], e.opts.Config.Rs, e.t)
		if s.Faulty {
			s.Samples[i] = inj.CorruptSamples(i, s.Samples[i])
		}
		return nil
	})
}

// FitStage runs each alive node's Estimate: its own curvature estimate G
// (Table 2 lines 2-3), which the Exchange stage broadcasts, and the peak
// candidate the controller keeps for this slot's Plan. Always parallel: a
// node's controller is touched by that node alone, and the per-worker fit
// scratch by its worker alone.
type FitStage struct{}

// Name implements Stage.
func (FitStage) Name() string { return "fit" }

// Run implements Stage.
func (FitStage) Run(e *Engine, s *Slot) error {
	return e.forNodes(true, func(w, i int) error {
		if !s.Alive.Up(i) {
			return nil
		}
		g, err := e.ctrl[i].Estimate(e.fitters[w], e.pos[i], s.Samples[i])
		if err != nil {
			return fmt.Errorf("node %d estimate: %w", i, err)
		}
		s.Curv[i] = g
		return nil
	})
}

// ExchangeStage delivers each alive node's (position, G) hello to its
// current unit-disk neighbors (Table 2 lines 4-5). Under an active
// injector, deliveries pass the link-loss channel, received reports feed
// the stale cache, and silent neighbors are replayed from it with their
// age (entries older than staleSlots are presumed dead and dropped).
// Parallel only when the injector is inactive: link-loss queries advance
// shared channel state.
type ExchangeStage struct{}

// Name implements Stage.
func (ExchangeStage) Name() string { return "exchange" }

// Run implements Stage.
func (ExchangeStage) Run(e *Engine, s *Slot) error {
	if err := e.refreshNeighbors(); err != nil {
		return err
	}
	inj := e.opts.Faults
	return e.forNodes(!s.Faulty, func(w, i int) error {
		if !s.Alive.Up(i) {
			return nil
		}
		// Fresh deliveries: the neighbor list is ascending, so the
		// received reports arrive — and stay — sorted by ID with no
		// explicit sort. DropLink must be consulted in exactly this order
		// (ascending j within ascending i): it advances shared channel
		// state.
		for _, j := range e.nbrLists[i] {
			if !s.Alive.Up(j) {
				continue // dead neighbors announce nothing
			}
			if s.Faulty && inj.DropLink(s.Epoch, j, i) {
				continue // delivery lost; the stale cache may fill in below
			}
			s.Infos[i] = append(s.Infos[i], mobile.NeighborInfo{
				ID: j, Pos: e.pos[j], G: s.Curv[j],
			})
		}
		if s.Faulty {
			e.mergeHeard(s, i)
		}
		return nil
	})
}

// PlanStage runs each alive node's Plan against the received neighbor
// reports (Table 2 lines 6-18) and applies the velocity limit to produce
// each mover's tentative next position. The per-node work is always
// parallel; the mean-force fold runs serially in ascending node order so
// the non-associative FP sum is reproduced exactly.
type PlanStage struct{}

// Name implements Stage.
func (PlanStage) Name() string { return "plan" }

// Run implements Stage.
func (PlanStage) Run(e *Engine, s *Slot) error {
	err := e.forNodes(true, func(_, i int) error {
		if !s.Alive.Up(i) {
			return nil
		}
		d, err := e.ctrl[i].Plan(e.pos[i], s.Infos[i])
		if err != nil {
			return fmt.Errorf("node %d plan: %w", i, err)
		}
		s.Decisions[i] = d
		s.ForceLen[i] = d.Fs.Len()
		if d.Move {
			s.Next[i] = e.ctrl[i].Step(e.pos[i], d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range e.pos {
		if s.Decisions[i].Move {
			s.Stats.Moved++
		}
		if !s.Alive.Up(i) {
			continue
		}
		s.Stats.MeanForce += s.ForceLen[i]
	}
	if s.AliveCount > 0 {
		s.Stats.MeanForce /= float64(s.AliveCount)
	}
	return nil
}

// ResolveStage applies the Local Connectivity Mechanism (Table 2 lines
// 19-21) to the tentative moves: every pre-move link between alive nodes
// must survive or be bridged, or the offending endpoints are pulled back
// together; an unresolvable slot reverts wholesale. Serial: constraint
// projection is a global fixpoint.
type ResolveStage struct{}

// Name implements Stage.
func (ResolveStage) Name() string { return "resolve" }

// Run implements Stage.
func (ResolveStage) Run(e *Engine, s *Slot) error {
	follows := e.lcm.Resolve(e.dyn.Bounds(), e.opts.Config.Rc, s.Alive, s.Next, s.Infos)
	s.Stats.Followed = follows
	if follows < 0 { // projection failed: slot reverted
		s.Stats.Followed = 0
		s.Stats.Moved = 0
		if e.met != nil {
			e.met.reverts.Inc()
		}
	}
	return nil
}

// MoveStage accounts the realized displacements (movement energy),
// records movement-path trace samples against the pre-advance time when
// Options.Trace is enabled, and commits the resolved positions by
// publishing s.Next and recycling the previous position array as the
// next slot's tentative buffer (the view.Alive contract permits reuse
// once the epoch advances). Serial: the displacement fold is an ordered
// FP sum and the commit is global.
type MoveStage struct{}

// Name implements Stage.
func (MoveStage) Name() string { return "move" }

// Run implements Stage.
func (MoveStage) Run(e *Engine, s *Slot) error {
	for i := range e.pos {
		moved := e.pos[i].Dist(s.Next[i])
		s.Stats.MeanDisplacement += moved
		s.Stats.EnergySpent += moved
		e.energy[i] += moved
	}
	if s.AliveCount > 0 {
		s.Stats.MeanDisplacement /= float64(s.AliveCount)
	}
	if e.trace != nil {
		e.trace.record(e.dyn, e.pos, s.Next, e.t, e.opts.SlotMinutes)
	}
	e.spare, e.pos = e.pos, s.Next
	e.epoch++
	return nil
}

// AccountStage advances world time and the slot counter and stamps the
// step statistics.
type AccountStage struct{}

// Name implements Stage.
func (AccountStage) Name() string { return "account" }

// Run implements Stage.
func (AccountStage) Run(e *Engine, s *Slot) error {
	e.t += e.opts.SlotMinutes
	e.slot++
	s.Stats.T = e.t
	return nil
}
