// Command ostd runs the mobile-node (OSTD) experiments of the paper:
// 100 CMA nodes starting from a connected grid over the time-varying
// forest-light field, reporting δ over time (Figs. 8, 9 and 10).
//
// Usage:
//
//	ostd                       # 45 slots (10:00→10:45), δ table
//	ostd -slots 45 -csv        # same as CSV
//	ostd -snap 0,25            # also render topology at those minutes
//	ostd -fault-rate 0.1       # run with 10% seeded failures injected
//	ostd -fault-sweep 0,0.1,0.3 # δ-vs-failure-rate degradation table
//	ostd -strategy lloyd       # a competitor movement from the registry
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/strategy"
	"repro/internal/surface"
	"repro/internal/sweep"
)

func main() {
	var (
		k          = flag.Int("k", 100, "number of mobile CPS nodes")
		slots      = flag.Int("slots", 45, "time slots (minutes) to simulate")
		deltaN     = flag.Int("delta-grid", 100, "δ integration lattice divisions")
		beta       = flag.Float64("beta", 2, "repulsion weight β")
		noise      = flag.Float64("noise", 0, "sensing noise standard deviation")
		seed       = flag.Int64("seed", 1, "sensing-noise seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of a text table")
		snaps      = flag.String("snap", "", "comma-separated minutes at which to render topology")
		faultRate  = flag.Float64("fault-rate", 0, "run-level failure rate injected via fault.Profile")
		faultSweep = flag.String("fault-sweep", "", "comma-separated failure rates for the degradation sweep")
		faultSeed  = flag.Int64("fault-seed", 1, "fault-injection seed")
		strat      = flag.String("strategy", "cma",
			"movement strategy ("+strings.Join(strategy.MovementNames(), ", ")+")")
	)
	var (
		snapAt map[float64]bool
		mv     strategy.Movement
		rates  []float64
	)
	obscli.Main("ostd", func() (err error) {
		if snapAt, err = parseSnaps(*snaps); err != nil {
			return fmt.Errorf("bad -snap: %w", err)
		}
		if mv, err = strategy.LookupMovement(*strat); err != nil {
			return fmt.Errorf("bad -strategy: %w", err)
		}
		if *faultSweep != "" {
			if rates, err = parseRates(*faultSweep); err != nil {
				return fmt.Errorf("bad -fault-sweep: %w", err)
			}
		}
		return checkFlags(*k, *slots, *deltaN, *beta, *noise, *faultRate, snapAt, rates)
	}, func(reg *obs.Registry) error {
		forest := field.NewForest(field.DefaultForestConfig())
		// One set of options drives both the single run and every rate of the
		// degradation sweep.
		opts := engine.DefaultOptions()
		opts.Config.Beta = *beta
		opts.NoiseStd = *noise
		opts.Seed = *seed
		opts.Metrics = reg
		opts.NewController = mv.NewController

		if *faultSweep != "" {
			rows, err := eval.DegradationSweep(forest, opts, *k, *slots, *deltaN, rates, *faultSeed)
			if err != nil {
				return err
			}
			if *csv {
				return eval.WriteDegradationCSV(os.Stdout, rows)
			}
			return eval.WriteDegradationTable(os.Stdout, rows)
		}

		w, err := eval.NewFaultedEngine(forest, opts, fault.ProfileSpec{Rate: *faultRate}, *k, *slots, *faultSeed)
		if err != nil {
			return err
		}
		rows, err := eval.DeltaVsTime(w, *slots, *deltaN)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if snapAt[r.T] {
				if err := snap(forest.Bounds(), r.Positions, r.T, opts.Config.Rc); err != nil {
					return err
				}
			}
		}
		return emit(rows, *csv)
	})
}

func emit(rows []eval.DeltaVsTimeRow, csv bool) error {
	write := eval.WriteDeltaVsTimeTable
	if csv {
		write = eval.WriteDeltaVsTimeCSV
	}
	if err := write(os.Stdout, rows); err != nil {
		return err
	}
	if conv, ok := eval.ConvergenceTime(rows); ok {
		fmt.Printf("converged at t=%.0f min (mean displacement < %g)\n", conv, eval.ConvergenceEps)
	} else {
		fmt.Println("not converged within the run")
	}
	return nil
}

// snap renders the topology of nodes at minute t.
func snap(region geom.Rect, nodes []geom.Vec2, t float64, rc float64) error {
	fmt.Printf("\ntopology at t=%.0f min:\n", t)
	if err := surface.RenderTopologyASCII(os.Stdout, region, nodes, rc, 72, 36); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// checkFlags refuses the numeric flags the run cannot honor, with the
// library's own checks where one exists, and the flag combinations it
// would silently ignore: a -fault-sweep (rates non-empty) with no slots,
// with -fault-rate or with -snap, and a -snap time that is not a slot
// time. It runs before anything is allocated, and each error names its
// flag.
func checkFlags(k, slots, deltaN int, beta, noise, faultRate float64, snapAt map[float64]bool, rates []float64) error {
	switch {
	case k < 1:
		return fmt.Errorf("bad -k %d: must be at least 1", k)
	case slots < 0:
		return fmt.Errorf("bad -slots %d: must be at least 0", slots)
	case deltaN < 1:
		return fmt.Errorf("bad -delta-grid %d: must be at least 1", deltaN)
	case len(rates) > 0 && slots == 0:
		return fmt.Errorf("bad -slots 0: -fault-sweep needs at least 1 slot")
	case len(rates) > 0 && faultRate != 0:
		return fmt.Errorf("bad -fault-rate %g: -fault-sweep runs its own rates", faultRate)
	case len(rates) > 0 && len(snapAt) > 0:
		return fmt.Errorf("bad -snap: -fault-sweep renders no topology")
	}
	if err := sweep.CheckWork(k, 0, deltaN, slots); err != nil {
		return fmt.Errorf("bad -k, -delta-grid or -slots: %w", err)
	}
	cfg := engine.DefaultOptions().Config
	cfg.Beta = beta
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("bad -beta: %w", err)
	}
	if err := engine.CheckNoise(noise); err != nil {
		return fmt.Errorf("bad -noise: %w", err)
	}
	if err := (fault.ProfileSpec{Rate: faultRate}).Validate(); err != nil {
		return fmt.Errorf("bad -fault-rate: %w", err)
	}
	for t := range snapAt {
		if !(t >= 0 && t <= float64(slots) && t == math.Trunc(t)) {
			return fmt.Errorf("bad -snap: every time must be a slot time in [0, %d]", slots)
		}
	}
	return nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if err := (fault.ProfileSpec{Rate: v}).Validate(); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSnaps(s string) (map[float64]bool, error) {
	out := map[float64]bool{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out[v] = true
	}
	return out, nil
}
