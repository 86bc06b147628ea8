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
	"os"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/surface"
	"repro/internal/sweep"
)

func main() {
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
	var spec sweep.FieldSpec
	obscli.Main("render", func() error {
		if err := checkFlags(*t, *gridN, *cols, *rows); err != nil {
			return err
		}
		spec = sweep.FieldSpec{Kind: *name, Seed: *seed}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("bad -field: %w", err)
		}
		switch *format {
		case "ascii", "pgm", "csv":
			return nil
		}
		return fmt.Errorf("unknown -format %q (want ascii, pgm or csv)", *format)
	}, func(*obs.Registry) (err error) {
		dyn, err := spec.Build()
		if err != nil {
			return err
		}
		f := field.Slice(dyn, *t)

		w := os.Stdout
		if *out != "" {
			file, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := file.Close(); err == nil {
					err = cerr
				}
			}()
			w = file
		}

		switch *format {
		case "ascii":
			return surface.RenderASCII(w, f, *cols, *rows)
		case "pgm":
			return surface.RenderPGM(w, f, *cols, *rows)
		}
		return surface.WriteGridCSV(w, f, *gridN)
	})
}

// checkFlags refuses the numeric flags the command cannot honor, before
// anything is allocated. The lattice size goes through the sweep's work
// budget, and so does each side of the render grid, as the side of a
// square lattice. Each error names its flag.
func checkFlags(t float64, gridN, cols, rows int) error {
	if err := field.CheckTime(t); err != nil {
		return fmt.Errorf("bad -t: %w", err)
	}
	if gridN < 1 {
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
