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
	"log"
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

// obsRun is the command's observability edge (see internal/obs/obscli);
// fatal/fatalf close it first so profiles and metric files are flushed on
// error exits too.
var obsRun *obscli.Run

func fatal(v ...any)                 { obsRun.Close(); log.Fatal(v...) }
func fatalf(format string, v ...any) { obsRun.Close(); log.Fatalf(format, v...) }

// closeRun flushes the observability outputs at a success exit, failing
// the command if an export cannot be written.
func closeRun() {
	if err := obsRun.Close(); err != nil {
		log.Fatal(err)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("osd: ")

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
	reg := obs.NewRegistry()
	obsRun = obscli.New(reg)
	obsRun.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := obsRun.Start(); err != nil {
		log.Fatal(err)
	}

	placer, err := strategy.LookupPlacement(*strat)
	if err != nil {
		fatalf("bad -strategy: %v", err)
	}
	var ks []int
	kMax := *k
	if *kSweep != "" {
		if ks, err = parseSweep(*kSweep); err != nil {
			fatalf("bad -sweep: %v", err)
		}
		kMax = ks[len(ks)-1]
	}
	if err := checkFlags(kMax, *gridN, *deltaN, *draws); err != nil {
		fatal(err)
	}

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
			fatal(err)
		}
		rows, err := sweep.DeltaVsKRows(rep)
		if err != nil {
			fatal(err)
		}
		if *csv {
			err = eval.WriteDeltaVsKCSV(os.Stdout, *strat, rows)
		} else {
			err = eval.WriteDeltaVsKTable(os.Stdout, *strat, rows)
		}
		if err != nil {
			fatal(err)
		}
		closeRun()
		return
	}

	ref := field.NewForest(field.DefaultForestConfig()).Reference()

	p, err := placer.Place(ref, strategy.PlaceOptions{
		K: *k, Rc: *rc, GridN: *gridN, Seed: *seed, Metrics: reg,
	})
	if err != nil {
		fatal(err)
	}
	ev, err := core.Evaluate(ref, p, *rc, *deltaN)
	if err != nil {
		fatal(err)
	}
	// The summary line is shared with the serving layer's /v1/place text
	// response; ci/serve_smoke.sh compares the two byte for byte.
	fmt.Println(serve.PlacementSummary(*strat, *k, p, ev))

	if *quiet {
		closeRun()
		return
	}
	fmt.Println("\ntopology (o = node, . = Rc link):")
	if err := surface.RenderTopologyASCII(os.Stdout, ref.Bounds(), p.Nodes, *rc, 72, 36); err != nil {
		fatal(err)
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
		fatal(err)
	}
	fmt.Println("\nreference surface:")
	if err := surface.RenderASCII(os.Stdout, ref, 72, 36); err != nil {
		fatal(err)
	}
	fmt.Println("\nrebuilt surface (Delaunay interpolation of node samples):")
	if err := surface.RenderASCII(os.Stdout, tin, 72, 36); err != nil {
		fatal(err)
	}
	closeRun()
}

// checkFlags refuses the numeric flags the run cannot honor before
// anything is allocated; k is the largest node budget of the run. Each
// error names its flag.
func checkFlags(k, gridN, deltaN, draws int) error {
	switch {
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
