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
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
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
	log.SetPrefix("fieldgen: ")

	var (
		out   = flag.String("o", "", "output file (default stdout)")
		times = flag.String("times", "0", "comma-separated epoch times in minutes")
		n     = flag.Int("grid", 100, "lattice divisions per side")
		seed  = flag.Int64("seed", 2009, "canopy layout seed")
		gaps  = flag.Int("gaps", 12, "number of canopy gaps")
		noise = flag.Float64("noise", 0, "sensing noise standard deviation")
	)
	obsRun = obscli.New(obs.NewRegistry())
	obsRun.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := obsRun.Start(); err != nil {
		log.Fatal(err)
	}

	ts, err := parseTimes(*times)
	if err != nil {
		fatalf("bad -times: %v", err)
	}
	if err := checkFlags(*n, *gaps, len(ts), *noise); err != nil {
		fatal(err)
	}

	cfg := field.DefaultForestConfig()
	cfg.Seed = *seed
	cfg.Gaps = *gaps
	forest := field.NewForest(cfg)

	records := field.GenerateTrace(forest, *n, ts, field.NewSampler(*noise, *seed))

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := field.WriteTrace(w, records); err != nil {
		fatal(err)
	}
	closeRun()
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

// parseTimes parses the comma-separated epoch times, which must be finite.
func parseTimes(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("time %v is not finite", v)
		}
		out = append(out, v)
	}
	return out, nil
}
