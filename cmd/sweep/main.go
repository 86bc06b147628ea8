// Command sweep runs a declarative scenario grid — the cartesian product
// of field generators, node counts, communication radii, placement
// strategies, fault profiles and seeds described by a JSON spec —
// through the strategy-registry evaluation stack, sharded across a
// bounded worker pool.
//
// Usage:
//
//	sweep -example > spec.json             # print a small worked example
//	sweep -spec spec.json -out out.json    # run it (workers = NumCPU)
//	sweep -spec spec.json -workers 8 -checkpoint run.ckpt -out out.json
//	sweep -spec spec.json -checkpoint run.ckpt -resume -out out.json
//	sweep -spec spec.json -strategies fra,lloyd,density,random  # bench-off
//
// Distributed mode splits the same sweep across processes and machines:
//
//	sweep -spec spec.json -serve :7787 -checkpoint run.ckpt -out out.json
//	sweep -join http://host:7787           # on each worker machine
//
// -serve starts the lease-granting coordinator; -join pulls cell leases
// from it and streams results back. Workers may crash, hang, or join
// late: expired leases are re-granted, duplicate and stale submissions
// are dropped, and the aggregate is byte-identical to a single-process
// run. A coordinator killed mid-sweep restarts with -resume from its
// checkpoint.
//
// The aggregated output (-out; .json, .csv, or a table on stdout) is
// byte-identical for any worker count. With -checkpoint every finished
// cell is durably recorded, so a sweep interrupted by SIGINT/SIGTERM or
// -limit resumes with -resume without recomputing, and the resumed
// output is byte-identical to an uninterrupted run. -limit N stops after
// N cells — a deterministic stand-in for "killed mid-sweep" used by CI
// and tests.
//
// The shared observability flags (-metrics-json, -metrics-prom, -pprof,
// -report; see internal/obs/obscli) export the sweep counters, the
// per-cell wall-time histogram and the worker-utilization gauges, plus
// the dsweep lease/result counters in distributed mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/dsweep"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// config gathers every CLI knob realMain needs; tests fill it directly.
type config struct {
	SpecPath   string
	Workers    int
	Out        string
	Format     string
	Checkpoint string
	Resume     bool
	Limit      int
	Example    bool
	Quiet      bool
	// Strategies, when non-empty, replaces the spec's strategies axis
	// with this comma-separated list before validation.
	Strategies string
	// Serve, when non-empty, runs the distributed-sweep coordinator on
	// this listen address instead of computing cells locally.
	Serve string
	// Join, when non-empty, runs a worker against this coordinator URL.
	Join string
	// LeaseTTL is the coordinator's lease duration; 0 uses the default.
	LeaseTTL time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.SpecPath, "spec", "", "path to the JSON scenario spec (required unless -example or -join)")
	flag.IntVar(&cfg.Workers, "workers", 0, "worker pool size; 0 = NumCPU")
	flag.StringVar(&cfg.Out, "out", "", "aggregated output path (.json or .csv; empty = table on stdout)")
	flag.StringVar(&cfg.Format, "format", "", "output format override: json, csv or table")
	flag.StringVar(&cfg.Checkpoint, "checkpoint", "", "JSONL checkpoint path (enables resume)")
	flag.BoolVar(&cfg.Resume, "resume", false, "replay completed cells from -checkpoint instead of recomputing")
	flag.IntVar(&cfg.Limit, "limit", 0, "stop after completing N cells (deterministic interruption); 0 = run all")
	flag.BoolVar(&cfg.Example, "example", false, "print a small example spec to stdout and exit")
	flag.StringVar(&cfg.Strategies, "strategies", "", "comma-separated placement strategies overriding the spec's strategies axis")
	flag.BoolVar(&cfg.Quiet, "quiet", false, "suppress per-cell progress lines")
	flag.StringVar(&cfg.Serve, "serve", "", "run the distributed-sweep coordinator on this address (e.g. :7787)")
	flag.StringVar(&cfg.Join, "join", "", "join a coordinator as a worker (e.g. http://host:7787)")
	flag.DurationVar(&cfg.LeaseTTL, "lease-ttl", 0, "coordinator lease duration before a silent worker's cells are re-granted; 0 = 15s")
	obscli.Main("sweep", func() error { return checkFlags(cfg) }, func(reg *obs.Registry) error {
		return realMain(cfg, reg)
	})
}

// checkFlags refuses the negative values the sweep and dsweep options
// would read as "use the default", naming the flag (0 is the default),
// and the flag combinations no mode accepts, so that no refused command
// line starts the run or writes its exports.
func checkFlags(cfg config) error {
	switch {
	case cfg.Workers < 0:
		return fmt.Errorf("bad -workers %d: must be at least 0 (0 = NumCPU)", cfg.Workers)
	case cfg.Limit < 0:
		return fmt.Errorf("bad -limit %d: must be at least 0 (0 runs every cell)", cfg.Limit)
	case cfg.LeaseTTL < 0:
		return fmt.Errorf("bad -lease-ttl %v: must be at least 0 (0 = 15s)", cfg.LeaseTTL)
	case cfg.Example:
		return nil
	case cfg.Serve != "" && cfg.Join != "":
		return fmt.Errorf("-serve and -join are mutually exclusive")
	case cfg.Join != "" && cfg.SpecPath != "":
		return fmt.Errorf("-join fetches the spec from the coordinator; drop -spec")
	case cfg.Join != "":
		return nil
	case cfg.SpecPath == "":
		return fmt.Errorf("missing -spec (or -example); see -h")
	case cfg.Resume && cfg.Checkpoint == "":
		return fmt.Errorf("-resume needs -checkpoint")
	}
	return nil
}

// realMain runs the mode cfg selects; cfg has passed checkFlags.
func realMain(cfg config, reg *obs.Registry) error {
	if cfg.Example {
		return writeExample(os.Stdout)
	}
	if cfg.Join != "" {
		return runJoin(cfg, reg)
	}
	spec, err := sweep.LoadSpecFile(cfg.SpecPath)
	if err != nil {
		return err
	}
	if cfg.Strategies != "" {
		spec.Strategies = strings.Split(cfg.Strategies, ",")
		for i := range spec.Strategies {
			spec.Strategies[i] = strings.TrimSpace(spec.Strategies[i])
		}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("bad -strategies: %w", err)
		}
	}
	if cfg.Serve != "" {
		return runServe(cfg, spec, reg)
	}

	opts := sweep.RunOptions{
		Workers:    cfg.Workers,
		Checkpoint: cfg.Checkpoint,
		Resume:     cfg.Resume,
		MaxCells:   cfg.Limit,
		Stop:       stopOnSignal(),
		Metrics:    reg,
	}
	if !cfg.Quiet {
		opts.Log = os.Stderr
	}
	rep, err := sweep.Run(spec, opts)
	if err != nil {
		return err
	}
	summarize(rep, reg)
	if rep.Interrupted {
		if cfg.Checkpoint != "" {
			log.Printf("interrupted after %d/%d cells; resume with -spec %s -checkpoint %s -resume",
				len(rep.Cells), rep.Total, cfg.SpecPath, cfg.Checkpoint)
		} else {
			log.Printf("interrupted after %d/%d cells; no -checkpoint, progress not recorded", len(rep.Cells), rep.Total)
		}
		return nil // partial aggregate is intentionally not written
	}
	return writeOutput(rep, cfg.Out, cfg.Format)
}

// stopOnSignal is the shared context-on-signal helper (see
// internal/serve.StopOnSignal, also used by cmd/served): the first
// SIGINT/SIGTERM closes the channel — finish the cells in flight,
// checkpoint them, exit cleanly — and a second signal kills the process
// the usual way.
func stopOnSignal() <-chan struct{} {
	return serve.StopOnSignal(func(s os.Signal) {
		log.Printf("%s: finishing cells in flight (send again to kill)", s)
	})
}

// runServe hosts the distributed-sweep coordinator: serve leases until
// every cell lands, then write the aggregate exactly as a local run
// would.
func runServe(cfg config, spec sweep.Spec, reg *obs.Registry) error {
	copts := dsweep.CoordinatorOptions{
		LeaseTTL:   cfg.LeaseTTL,
		Checkpoint: cfg.Checkpoint,
		Resume:     cfg.Resume,
		Metrics:    reg,
	}
	if !cfg.Quiet {
		copts.Log = os.Stderr
	}
	c, err := dsweep.NewCoordinator(spec, copts)
	if err != nil {
		return err
	}
	defer c.Close()

	ln, err := net.Listen("tcp", cfg.Serve)
	if err != nil {
		return fmt.Errorf("coordinator listen: %w", err)
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln) //nolint:errcheck // dies with the listener on shutdown
	log.Printf("coordinator on %s: %d/%d cells done, waiting for workers (-join http://%s)",
		ln.Addr(), c.Resumed(), c.Total(), ln.Addr())

	rep, complete, err := c.Wait(stopOnSignal())
	if complete {
		// Linger briefly so workers still wait-polling /lease hear "done"
		// instead of a connection refused; the worker that landed the last
		// cell already learned it from the result ack.
		time.Sleep(time.Second)
	}
	srv.Close()
	if err != nil {
		return err
	}
	summarize(rep, reg)
	if !complete {
		if cfg.Checkpoint != "" {
			log.Printf("interrupted after %d/%d cells; resume with -serve %s -checkpoint %s -resume",
				len(rep.Cells), rep.Total, cfg.Serve, cfg.Checkpoint)
		} else {
			log.Printf("interrupted after %d/%d cells; no -checkpoint, progress not recorded", len(rep.Cells), rep.Total)
		}
		return nil
	}
	return writeOutput(rep, cfg.Out, cfg.Format)
}

// runJoin runs one worker against a coordinator until the sweep is done
// or a signal drains it.
func runJoin(cfg config, reg *obs.Registry) error {
	wopts := dsweep.WorkerOptions{
		Coordinator: cfg.Join,
		Stop:        stopOnSignal(),
		Metrics:     reg,
	}
	if !cfg.Quiet {
		wopts.Log = os.Stderr
	}
	stats, err := dsweep.RunWorker(wopts)
	log.Printf("worker: %d cells computed, %d duplicate, %d stale, %d leases lost",
		stats.Computed, stats.Duplicate, stats.Stale, stats.Lost)
	return err
}

// summarize prints run bookkeeping to stderr: cell counts and, when
// metrics recorded any live cells, the wall-time quantiles.
func summarize(rep *sweep.Report, reg *obs.Registry) {
	log.Printf("%d/%d cells (%d computed, %d resumed, %d failed)",
		len(rep.Cells), rep.Total, rep.Computed, rep.Resumed, rep.Failed)
	if h, ok := reg.Snapshot().Histograms["sweep_cell_seconds"]; ok && h.Count > 0 {
		log.Printf("cell wall-time: p50≈%.3gs p95≈%.3gs (n=%d)", h.Quantile(0.5), h.Quantile(0.95), h.Count)
	}
}

// writeOutput renders the aggregate in the requested format: an explicit
// -format wins, else the -out extension decides, else a table on stdout.
func writeOutput(rep *sweep.Report, out, format string) error {
	if format == "" {
		switch {
		case strings.HasSuffix(out, ".json"):
			format = "json"
		case strings.HasSuffix(out, ".csv"):
			format = "csv"
		default:
			format = "table"
		}
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				log.Printf("close %s: %v", out, cerr)
			}
		}()
		w = f
	}
	switch format {
	case "json":
		return sweep.WriteJSON(w, rep)
	case "csv":
		return sweep.WriteCSV(w, rep)
	case "table":
		return sweep.WriteTable(w, rep)
	}
	return fmt.Errorf("unknown -format %q (want json, csv or table)", format)
}

// writeExample prints the worked example spec from the README.
func writeExample(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sweep.ExampleSpec())
}
