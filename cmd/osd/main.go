// Command osd runs the stationary-node (OSD) experiments of the paper:
// FRA placements and the δ-versus-k sweep against random deployment
// (Figs. 5, 6 and 7).
//
// Usage:
//
//	osd -k 100                 # one FRA placement, topology + surface render
//	osd -sweep 1:200:10        # Fig. 7 sweep (min:max:step), text table
//	osd -sweep 1:200:10 -csv   # same as CSV
//	osd -strategy lloyd -k 100 # a competitor placement from the registry
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/surface"
	"repro/internal/sweep"
)

func main() {
	var (
		k      = flag.Int("k", 100, "number of CPS nodes for a single placement")
		kSweep = flag.String("sweep", "", "δ-vs-k sweep as min:max:step (Fig. 7)")
		rc     = flag.Float64("rc", 10, "communication radius Rc in meters")
		gridN  = flag.Int("grid", 100, "local-error lattice divisions per side")
		deltaN = flag.Int("delta-grid", 100, "δ integration lattice divisions")
		draws  = flag.Int("draws", 5, "random deployments averaged per k")
		seed   = flag.Int64("seed", 1, "random baseline seed")
		csv    = flag.Bool("csv", false, "emit CSV instead of a text table")
		quiet  = flag.Bool("quiet", false, "suppress surface renders")
		strat  = flag.String("strategy", "fra",
			"placement strategy ("+strings.Join(strategy.PlacementNames(), ", ")+")")
	)
	var (
		placer strategy.Placement
		ks     []int
	)
	obscli.Main("osd", func() (err error) {
		if placer, err = strategy.LookupPlacement(*strat); err != nil {
			return fmt.Errorf("bad -strategy: %w", err)
		}
		kMax := *k
		if *kSweep != "" {
			if ks, err = parseSweep(*kSweep); err != nil {
				return fmt.Errorf("bad -sweep: %w", err)
			}
			kMax = ks[len(ks)-1]
		}
		return checkFlags(kMax, *rc, *gridN, *deltaN, *draws)
	}, func(reg *obs.Registry) error {
		if *kSweep != "" {
			// Fig. 7 is a one-field scenario sweep over the k grid, on the
			// same t = 0 forest the single placement below uses.
			rep, err := sweep.Run(sweep.Spec{
				Name:        "fig7",
				Fields:      []sweep.FieldSpec{{Kind: "forest"}},
				Ks:          ks,
				Rcs:         []float64{*rc},
				Strategies:  []string{*strat},
				Seeds:       []int64{*seed},
				GridN:       *gridN,
				DeltaN:      *deltaN,
				RandomDraws: *draws,
			}, sweep.RunOptions{Metrics: reg})
			if err != nil {
				return err
			}
			rows, err := sweep.DeltaVsKRows(rep)
			if err != nil {
				return err
			}
			if *csv {
				return eval.WriteDeltaVsKCSV(os.Stdout, *strat, rows)
			}
			return eval.WriteDeltaVsKTable(os.Stdout, *strat, rows)
		}

		ref := field.NewForest(field.DefaultForestConfig()).Reference()

		p, err := placer.Place(ref, strategy.PlaceOptions{
			K: *k, Rc: *rc, GridN: *gridN, Seed: *seed, Metrics: reg,
		})
		if err != nil {
			return err
		}
		ev, err := core.Evaluate(ref, p, *rc, *deltaN)
		if err != nil {
			return err
		}
		// The summary line is shared with the serving layer's /v1/place text
		// response; ci/serve_smoke.sh compares the two byte for byte.
		fmt.Println(serve.PlacementSummary(*strat, *k, p, ev))

		if *quiet {
			return nil
		}
		fmt.Println("\ntopology (o = node, . = Rc link):")
		if err := surface.RenderTopologyASCII(os.Stdout, ref.Bounds(), p.Nodes, *rc, 72, 36); err != nil {
			return err
		}

		samples := make([]field.Sample, 0, len(p.Nodes)+len(p.Anchors))
		for _, pos := range p.Anchors {
			samples = append(samples, field.Sample{Pos: pos, Z: ref.Eval(pos)})
		}
		for _, pos := range p.Nodes {
			samples = append(samples, field.Sample{Pos: pos, Z: ref.Eval(pos)})
		}
		tin, err := surface.FromSamples(ref.Bounds(), samples)
		if err != nil {
			return err
		}
		fmt.Println("\nreference surface:")
		if err := surface.RenderASCII(os.Stdout, ref, 72, 36); err != nil {
			return err
		}
		fmt.Println("\nrebuilt surface (Delaunay interpolation of node samples):")
		return surface.RenderASCII(os.Stdout, tin, 72, 36)
	})
}

// checkFlags refuses the numeric flags the run cannot honor before
// anything is allocated; k is the largest node budget of the run. Each
// error names its flag.
func checkFlags(k int, rc float64, gridN, deltaN, draws int) error {
	switch {
	case !(rc > 0) || math.IsInf(rc, 1):
		return fmt.Errorf("bad -rc: rc=%v is not positive and finite", rc)
	case gridN < 1:
		return fmt.Errorf("bad -grid %d: must be at least 1", gridN)
	case deltaN < 1:
		return fmt.Errorf("bad -delta-grid %d: must be at least 1", deltaN)
	case draws < 1:
		return fmt.Errorf("bad -draws %d: must be at least 1", draws)
	}
	if err := sweep.CheckWork(k, gridN, deltaN, 0); err != nil {
		return fmt.Errorf("bad -k, -grid or -delta-grid: %w", err)
	}
	return nil
}

func parseSweep(s string) ([]int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("want min:max:step, got %q", s)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("field %d: %w", i, err)
		}
		vals[i] = v
	}
	min, max, step := vals[0], vals[1], vals[2]
	if min < 1 || max < min || step < 1 {
		return nil, fmt.Errorf("invalid range %d:%d:%d", min, max, step)
	}
	var ks []int
	for k := min; k <= max; k += step {
		ks = append(ks, k)
	}
	return ks, nil
}
