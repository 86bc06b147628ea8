// Command evalall regenerates every figure of the paper's evaluation in
// one run and prints a summary suitable for EXPERIMENTS.md: the Fig. 3
// uniform-versus-CWD comparison, the Fig. 7 δ-versus-k sweep, and the
// Fig. 10 δ-versus-time CMA series with the FRA comparison the paper quotes
// ("the CMA's performance of δ is only 16% more than FRA's").
//
// Usage:
//
//	evalall                  # quick profile (coarser lattices, fewer k points)
//	evalall -full            # the paper's full resolution (slower)
//	evalall -strategy lloyd  # swap a registry strategy into Figs. 7 and 10
//
// -cpuprofile and -memprofile write pprof profiles of the run, and the
// shared observability flags (-metrics-json, -metrics-prom, -pprof,
// -report; see internal/obs/obscli) export where the evaluation pipeline
// spends its time. Profile handles are closed — and write errors
// reported — on every exit path, including early errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/strategy"
	"repro/internal/sweep"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's full resolution")
	ext := flag.Bool("ext", false, "also run the extension experiments (network cost, CMA vs centralized)")
	strat := flag.String("strategy", "fra",
		"strategy for the Fig. 7 placement and Fig. 10 movement ("+strings.Join(strategy.PlacementNames(), ", ")+")")
	obscli.Main("evalall", func() error {
		if _, err := strategy.LookupPlacement(*strat); err != nil {
			return fmt.Errorf("bad -strategy: %w", err)
		}
		return nil
	}, func(reg *obs.Registry) error {
		return realMain(*full, *ext, *strat, reg)
	})
}

func realMain(full, ext bool, strat string, reg *obs.Registry) error {
	gridN, deltaN, slots := 50, 50, 30
	ks := []int{1, 10, 25, 50, 75, 100, 125, 150, 200}
	if full {
		gridN, deltaN, slots = 100, 100, 45
		ks = nil
		for k := 1; k <= 200; k += 5 {
			ks = append(ks, k)
		}
	}

	forest := field.NewForest(field.DefaultForestConfig())
	ref := forest.Reference()

	fmt.Println("=== Fig. 3: uniform vs curvature-weighted distribution (16 nodes, peaks) ===")
	cwdOpts := core.DefaultCWDOptions(16)
	cwdRows, err := eval.CompareCWD(field.Peaks(ref.Bounds()), cwdOpts, deltaN)
	if err != nil {
		return err
	}
	if err := eval.WriteCWDTable(os.Stdout, cwdRows); err != nil {
		return err
	}

	fmt.Printf("\n=== Fig. 7: δ vs k, %s vs random deployment ===\n", strings.ToUpper(strat))
	// The δ-versus-k sweep is a scenario sweep: a single-field,
	// single-rc, fault-free grid over the paper's k values, whose cells
	// shard across the worker pool and show up in the sweep metrics.
	kSpec := sweep.Spec{
		Name:        "fig7",
		Fields:      []sweep.FieldSpec{{Kind: "forest"}},
		Ks:          ks,
		Rcs:         []float64{10},
		Strategies:  []string{strat},
		GridN:       gridN,
		DeltaN:      deltaN,
		RandomDraws: 5,
		Seeds:       []int64{1},
	}
	kRep, err := sweep.Run(kSpec, sweep.RunOptions{Metrics: reg})
	if err != nil {
		return err
	}
	kRows, err := sweep.DeltaVsKRows(kRep)
	if err != nil {
		return err
	}
	if err := eval.WriteDeltaVsKTable(os.Stdout, strat, kRows); err != nil {
		return err
	}

	mv := strategy.MovementFor(strat)
	mvLabel := strings.ToUpper(mv.Name())
	fmt.Printf("\n=== Fig. 10: δ vs time, 100 mobile nodes with %s ===\n", mvLabel)
	opts := engine.DefaultOptions()
	opts.Metrics = reg
	opts.NewController = mv.NewController
	w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), opts)
	if err != nil {
		return err
	}
	tRows, err := eval.DeltaVsTime(w, slots, deltaN)
	if err != nil {
		return err
	}
	if err := eval.WriteDeltaVsTimeTable(os.Stdout, tRows); err != nil {
		return err
	}
	if conv, ok := eval.ConvergenceTime(tRows); ok {
		fmt.Printf("%s converged at t=%.0f min\n", mvLabel, conv)
	} else {
		fmt.Printf("%s not converged within the run\n", mvLabel)
	}

	// The paper's final comparison: converged CMA δ vs FRA δ at k=100.
	fraOpts := core.FRAOptions{K: 100, Rc: 10, GridN: gridN, Metrics: reg}
	// Compare on the field slice at the end of the mobile run.
	endSlice := field.Slice(forest, w.Time())
	p, err := core.FRA(endSlice, fraOpts)
	if err != nil {
		return err
	}
	fraEv, err := core.Evaluate(endSlice, p, 10, deltaN)
	if err != nil {
		return err
	}
	cmaDelta := tRows[len(tRows)-1].Delta
	fmt.Printf("\nfinal comparison at t=%.0f: %s δ=%.1f vs FRA δ=%.1f (ratio %.2f; paper reports ≈1.16 for CMA)\n",
		w.Time(), mvLabel, cmaDelta, fraEv.Delta, cmaDelta/fraEv.Delta)

	if !ext {
		return nil
	}

	fmt.Println("\n=== Extension: collection cost & robustness of FRA networks ===")
	nRows, err := eval.NetworkVsK(ref, []int{50, 100, 150}, 10, gridN, deltaN, nil)
	if err != nil {
		return err
	}
	if err := eval.WriteNetworkTable(os.Stdout, nRows); err != nil {
		return err
	}

	fmt.Println("\n=== Extension: CMA vs centralized replanning (100 nodes, 20 min) ===")
	mRows, err := eval.CompareMobile(forest, 100, 20, deltaN)
	if err != nil {
		return err
	}
	return eval.WriteMobileTable(os.Stdout, mRows)
}
