// Command render visualizes an environment field — the reproduction's
// stand-in for the paper's Matlab surface plots (Fig. 1 and the surface
// panels of Figs. 5, 6, 8, 9).
//
// Usage:
//
//	render                      # forest reference surface as ASCII
//	render -field peaks         # the Matlab peaks surface of Fig. 3
//	render -t 25                # forest field at minute 25
//	render -format pgm -o f.pgm # grayscale image
//	render -format csv          # raw x,y,z grid
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
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
	log.SetPrefix("render: ")

	var (
		name   = flag.String("field", "forest", "field to render: forest | peaks | terrain | ridge")
		t      = flag.Float64("t", 0, "time in minutes (forest field)")
		seed   = flag.Int64("seed", 2009, "forest canopy or terrain seed (0: the kind's default)")
		format = flag.String("format", "ascii", "output format: ascii | pgm | csv")
		cols   = flag.Int("cols", 100, "render columns (ascii/pgm), 2 to 1024")
		rows   = flag.Int("rows", 50, "render rows (ascii/pgm), 2 to 1024")
		gridN  = flag.Int("grid", 100, "lattice divisions (csv)")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	obsRun = obscli.New(obs.NewRegistry())
	obsRun.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := obsRun.Start(); err != nil {
		log.Fatal(err)
	}
	if err := checkFlags(*t, *gridN, *cols, *rows); err != nil {
		fatal(err)
	}

	dyn, err := sweep.FieldSpec{Kind: *name, Seed: *seed}.Build()
	if err != nil {
		fatalf("bad -field: %v", err)
	}
	f := field.Slice(dyn, *t)

	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := file.Close(); err != nil {
				fatal(err)
			}
		}()
		w = file
	}

	switch *format {
	case "ascii":
		err = surface.RenderASCII(w, f, *cols, *rows)
	case "pgm":
		err = surface.RenderPGM(w, f, *cols, *rows)
	case "csv":
		err = surface.WriteGridCSV(w, f, *gridN)
	default:
		fatalf("unknown -format %q (want ascii, pgm or csv)", *format)
	}
	if err != nil {
		fatal(err)
	}
	closeRun()
}

// checkFlags refuses the numeric flags the command cannot honor, before
// anything is allocated. The lattice size goes through the sweep's work
// budget, and so does each side of the render grid, as the side of a
// square lattice. Each error names its flag.
func checkFlags(t float64, gridN, cols, rows int) error {
	switch {
	case math.IsNaN(t) || math.IsInf(t, 0):
		return fmt.Errorf("bad -t %v: must be finite", t)
	case gridN < 1:
		return fmt.Errorf("bad -grid %d: must be at least 1", gridN)
	}
	if err := sweep.CheckWork(1, gridN, 0, 0); err != nil {
		return fmt.Errorf("bad -grid: %w", err)
	}
	for _, side := range []struct {
		flag string
		n    int
	}{{"-cols", cols}, {"-rows", rows}} {
		if side.n < 2 {
			return fmt.Errorf("bad %s %d: must be at least 2", side.flag, side.n)
		}
		if err := sweep.CheckWork(1, side.n-1, 0, 0); err != nil {
			return fmt.Errorf("bad %s %d: %w", side.flag, side.n, err)
		}
	}
	return nil
}
