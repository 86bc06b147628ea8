// Package obscli is the shared observability edge of every cmd/* binary:
// one Run object registers the -metrics-json, -metrics-prom, -pprof,
// -report, -cpuprofile and -memprofile flags, starts the live pprof
// server and CPU profile, and at Close writes the profiles, exports the
// metrics registry and emits a structured end-of-run report.
//
// Lifecycle: a command declares its own flags on flag.CommandLine and
// hands the rest to Main, which owns the whole edge:
//
//	func main() {
//		k := flag.Int("k", 100, "node count")
//		obscli.Main("osd", func() error {
//			return checkFlags(*k) // flag checks; nothing started yet
//		}, func(reg *obs.Registry) error {
//			return run(*k, reg) // the command body
//		})
//	}
//
// The checks run before Start, so a refused flag starts no profile or
// listener and writes no export; see Main for the exit statuses.
package obscli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // mounts the profiling handlers served at -pprof
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// Main runs the command name behind the shared edge and returns only on
// success. It sets the "name: " log prefix, registers the shared flags on
// flag.CommandLine next to the command's own, parses the command line (a
// malformed one exits 2), and then calls check, Start, body and Close in
// that order; Close runs whenever Start succeeded. The first error of
// check, Start, body or Close is printed as "name: err" and the process
// exits with status 1.
func Main(name string, check func() error, body func(reg *obs.Registry) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	r := New(obs.NewRegistry())
	r.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := r.exec(check, body); err != nil {
		log.Fatal(err)
	}
}

// exec runs check, then body between Start and Close, and returns the
// first error.
func (r *Run) exec(check func() error, body func(reg *obs.Registry) error) (err error) {
	if err := check(); err != nil {
		return err
	}
	if err := r.Start(); err != nil {
		return err
	}
	defer func() {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}()
	return body(r.reg)
}

// Run owns a command's observability lifecycle. The zero value is not
// usable; use New.
type Run struct {
	reg *obs.Registry

	metricsJSON string
	metricsProm string
	pprofAddr   string
	report      bool
	cpuProfile  string
	memProfile  string

	started  time.Time
	cpuFile  *os.File
	listener net.Listener
	closed   bool
}

// New returns a Run that will export reg at Close. A nil registry is
// allowed: profiles and pprof still work, metric exports are empty.
func New(reg *obs.Registry) *Run { return &Run{reg: reg} }

// RegisterFlags installs the shared observability flags on fs.
func (r *Run) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&r.metricsJSON, "metrics-json", "", "write end-of-run metrics as JSON to this file")
	fs.StringVar(&r.metricsProm, "metrics-prom", "", "write end-of-run metrics in Prometheus text format to this file")
	fs.StringVar(&r.pprofAddr, "pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	fs.BoolVar(&r.report, "report", false, "print a one-line JSON run report to stderr at exit")
	fs.StringVar(&r.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&r.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
}

// Start begins the run: opens and starts the CPU profile and brings up
// the pprof/metrics HTTP listener. On error every resource already
// acquired is released — no leaked file handles.
func (r *Run) Start() error {
	r.started = time.Now()
	if r.cpuProfile != "" {
		f, err := os.Create(r.cpuProfile)
		if err != nil {
			return fmt.Errorf("obscli: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("obscli: cpu profile: %w", err)
		}
		r.cpuFile = f
	}
	if r.pprofAddr != "" {
		ln, err := net.Listen("tcp", r.pprofAddr)
		if err != nil {
			r.stopCPU() // release the profile acquired above
			return fmt.Errorf("obscli: pprof listener: %w", err)
		}
		r.listener = ln
		mux := http.NewServeMux()
		// net/http/pprof registers its handlers on http.DefaultServeMux at
		// init; mounting that mux exposes exactly those plus our /metrics.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = r.reg.WritePrometheus(w)
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //nolint:errcheck // dies with the process
	}
	return nil
}

// stopCPU stops the CPU profile and closes its file, reporting the close
// error the old per-command plumbing swallowed.
func (r *Run) stopCPU() error {
	if r.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := r.cpuFile.Close()
	r.cpuFile = nil
	if err != nil {
		return fmt.Errorf("obscli: close cpu profile: %w", err)
	}
	return nil
}

// writeFile creates path and hands it to write, closing the handle on
// every path and keeping the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Report is the structured end-of-run record Close emits.
type Report struct {
	// ElapsedSeconds is the wall time between Start and Close.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// HeapBytes is the heap in use as seen by the runtime at exit.
	HeapBytes uint64 `json:"heap_bytes"`
	// NumGC is the number of completed GC cycles.
	NumGC uint32 `json:"num_gc"`
	// Metrics is the final registry snapshot.
	Metrics obs.Snapshot `json:"metrics"`
}

// buildReport snapshots the run into a Report.
func (r *Run) buildReport() Report {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Report{
		ElapsedSeconds: time.Since(r.started).Seconds(),
		HeapBytes:      ms.HeapInuse,
		NumGC:          ms.NumGC,
		Metrics:        r.reg.Snapshot(),
	}
}

// Close finishes the run: stops the CPU profile, writes the heap profile
// and the metrics exports, shuts the pprof listener, and prints the run
// report when -report is set. It returns the first error and is
// idempotent, so `defer run.Close()` composes with an explicit
// error-checked Close on the success path.
func (r *Run) Close() error {
	if r == nil || r.closed {
		return nil
	}
	r.closed = true
	firstErr := r.stopCPU()
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	if r.listener != nil {
		keep(r.listener.Close())
		r.listener = nil
	}
	if r.memProfile != "" {
		runtime.GC() // flush recent allocations into the profile
		keep(writeFile(r.memProfile, pprof.WriteHeapProfile))
	}
	if r.metricsJSON != "" {
		keep(writeFile(r.metricsJSON, r.reg.WriteJSON))
	}
	if r.metricsProm != "" {
		keep(writeFile(r.metricsProm, r.reg.WritePrometheus))
	}
	if r.report {
		enc := json.NewEncoder(os.Stderr)
		keep(enc.Encode(r.buildReport()))
	}
	return firstErr
}
