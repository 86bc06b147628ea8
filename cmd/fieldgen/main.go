// Command fieldgen generates a synthetic GreenOrbs-style environment trace
// as CSV (t,x,y,z), the reproduction's stand-in for the project's
// published sensor data (see DESIGN.md §3).
//
// Usage:
//
//	fieldgen                        # one epoch at t=0, 1-meter lattice
//	fieldgen -times 0,15,30,45      # several epochs
//	fieldgen -seed 7 -gaps 20 -o trace.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/sweep"
)

func main() {
	var (
		out   = flag.String("o", "", "output file (default stdout)")
		times = flag.String("times", "0", "comma-separated epoch times in minutes")
		n     = flag.Int("grid", 100, "lattice divisions per side")
		seed  = flag.Int64("seed", 2009, "canopy layout seed")
		gaps  = flag.Int("gaps", 12, "number of canopy gaps")
		noise = flag.Float64("noise", 0, "sensing noise standard deviation")
	)
	var ts []float64
	obscli.Main("fieldgen", func() (err error) {
		if ts, err = parseTimes(*times); err != nil {
			return fmt.Errorf("bad -times: %w", err)
		}
		return checkFlags(*n, *gaps, len(ts), *noise)
	}, func(*obs.Registry) (err error) {
		cfg := field.DefaultForestConfig()
		cfg.Seed = *seed
		cfg.Gaps = *gaps
		forest := field.NewForest(cfg)

		records := field.GenerateTrace(forest, *n, ts, field.NewSampler(*noise, *seed))

		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}()
			w = f
		}
		return field.WriteTrace(w, records)
	})
}

// checkFlags refuses the numeric flags the command cannot honor, naming
// the flag. The trace's size passes the sweep's work budget (each point of
// each epoch sums every gap), the noise the engine's own check.
func checkFlags(n, gaps, epochs int, noise float64) error {
	switch {
	case n < 1:
		return fmt.Errorf("bad -grid %d: must be at least 1", n)
	case gaps < 1:
		return fmt.Errorf("bad -gaps %d: must be at least 1", gaps)
	}
	if err := sweep.CheckWork(gaps, n, 0, epochs); err != nil {
		return fmt.Errorf("bad -grid, -gaps or -times: %w", err)
	}
	if err := engine.CheckNoise(noise); err != nil {
		return fmt.Errorf("bad -noise: %w", err)
	}
	return nil
}

// parseTimes parses the comma-separated epoch times, each of which the
// forest must evaluate to finite values (see field.CheckTime).
func parseTimes(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if err := field.CheckTime(v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
