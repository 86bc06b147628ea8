// Command served is the placement-as-a-service daemon: a long-lived
// stdlib net/http JSON API over the strategy registry, the δ-evaluation
// stack and the scenario-sweep engine (see internal/serve).
//
// Usage:
//
//	served -addr :7786
//	curl -fsS localhost:7786/healthz
//	curl -fsS -X POST localhost:7786/v1/place \
//	  -d '{"field":{"kind":"forest"},"k":40,"rc":10}'
//	curl -fsS -X POST localhost:7786/v1/place?format=text -d '...'   # the cmd/osd line
//	curl -fsS -X POST localhost:7786/v1/eval \
//	  -d '{"field":{"kind":"peaks"},"nodes":[{"x":20,"y":20},{"x":80,"y":60}],"rc":60}'
//	curl -fsS -X POST localhost:7786/v1/sweeps -d @spec.json          # → job id
//	curl -fsS localhost:7786/v1/sweeps/<id>                           # poll status
//	curl -fsS localhost:7786/v1/sweeps/<id>/results                   # checkpoint JSONL
//	curl -fsS localhost:7786/v1/sweeps/<id>/report                    # aggregate JSON
//
// Synchronous requests are admission-controlled per tenant (X-API-Key
// header): -max-inflight compute at once, -queue-depth wait behind
// them, the rest get 429 + Retry-After. Responses are served from a
// content-addressed cache when the same request was computed before —
// placement is deterministic, so a hit is byte-identical to a
// recompute. /metrics (Prometheus text), /healthz and /debug/pprof ride
// the same listener.
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting,
// in-flight requests and queued waiters finish, running sweep jobs
// checkpoint their in-flight cells, and the process exits 0.
//
// The shared observability flags (-metrics-json, -metrics-prom, -pprof,
// -report; see internal/obs/obscli) export the serve_* series plus
// everything the underlying runs record at exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/serve"
)

// config gathers every CLI knob realMain needs; tests fill it directly.
type config struct {
	Addr        string
	MaxInflight int
	QueueDepth  int
	CacheSize   int
	MaxJobs     int
	Workers     int
	JobDir      string
	Quiet       bool
	// Stop, when non-nil, replaces the SIGINT/SIGTERM trigger; tests
	// drain the server by closing it.
	Stop <-chan struct{}
	// Ready, when non-nil, is called with the bound listen address once
	// the server is accepting; tests use it to learn the random port.
	Ready func(addr string)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", ":7786", "listen address")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 0, "per-tenant concurrent compute requests; 0 = 4")
	flag.IntVar(&cfg.QueueDepth, "queue-depth", 0, "per-tenant queued requests (and queued sweep jobs) before 429; 0 = 64")
	flag.IntVar(&cfg.CacheSize, "cache", 0, "result-cache entries; 0 = 256, negative disables")
	flag.IntVar(&cfg.MaxJobs, "max-jobs", 0, "sweep jobs computing at once; 0 = 1")
	flag.IntVar(&cfg.Workers, "sweep-workers", 0, "worker pool per sweep job; 0 = NumCPU")
	flag.StringVar(&cfg.JobDir, "job-dir", "", "directory for per-job sweep checkpoints; empty keeps results in memory only")
	flag.BoolVar(&cfg.Quiet, "quiet", false, "suppress request/job progress lines")
	obscli.Main("served", func() error { return checkFlags(cfg) }, func(reg *obs.Registry) error {
		return realMain(cfg, reg)
	})
}

// checkFlags refuses the negative sizes serve.Config would read as "use
// the default", naming the flag; 0 is the default and a negative -cache
// disables the cache.
func checkFlags(cfg config) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-max-inflight", cfg.MaxInflight},
		{"-queue-depth", cfg.QueueDepth},
		{"-max-jobs", cfg.MaxJobs},
		{"-sweep-workers", cfg.Workers},
	} {
		if f.v < 0 {
			return fmt.Errorf("bad %s %d: must be at least 0 (0 takes the default)", f.name, f.v)
		}
	}
	return nil
}

func realMain(cfg config, reg *obs.Registry) error {
	scfg := serve.Config{
		MaxInflight:  cfg.MaxInflight,
		QueueDepth:   cfg.QueueDepth,
		CacheSize:    cfg.CacheSize,
		MaxJobs:      cfg.MaxJobs,
		SweepWorkers: cfg.Workers,
		JobDir:       cfg.JobDir,
		Metrics:      reg,
	}
	if !cfg.Quiet {
		scfg.Log = os.Stderr
	}
	s := serve.New(scfg)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at shutdown
	log.Printf("serving on http://%s (place, eval, sweeps; /healthz /metrics /debug/pprof)", ln.Addr())
	if cfg.Ready != nil {
		cfg.Ready(ln.Addr().String())
	}

	stop := cfg.Stop
	if stop == nil {
		stop = serve.StopOnSignal(func(sig os.Signal) {
			log.Printf("%s: draining (finish in-flight, checkpoint jobs; send again to kill)", sig)
		})
	}
	<-stop

	// Shutdown stops the listener and waits for every in-flight request
	// — including limiter waiters — to complete; Drain then parks the
	// job pool, checkpointing running sweeps.
	if err := srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	s.Drain()
	log.Printf("drained cleanly")
	return nil
}
