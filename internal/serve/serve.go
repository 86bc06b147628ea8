// Package serve is the placement-as-a-service layer: a stdlib net/http
// JSON API over the strategy registry, the δ-evaluation stack and the
// scenario-sweep engine. Small jobs run synchronously — POST /v1/place
// places k nodes on a field spec or inline samples and POST /v1/eval
// scores a caller-supplied deployment — while whole scenario grids run
// asynchronously: POST /v1/sweeps enqueues a job on a bounded in-process
// pool backed by a sweep.Ledger, GET /v1/sweeps/{id} polls it, and the
// results stream in the sweep checkpoint JSONL format.
//
// Production concerns are first-class:
//
//   - strict request validation (DisallowUnknownFields, bounded bodies);
//   - per-tenant (X-API-Key) concurrency limits with queue-depth
//     backpressure — over-limit requests get 429 + Retry-After instead
//     of unbounded queueing;
//   - a content-addressed result cache keyed by FNV-1a digests of the
//     result-affecting request inputs, the same idiom as sweep cell
//     digests (and computation is deterministic, so a cache hit is
//     byte-identical to a recompute);
//   - a reference cache that fills each named field's lattices once
//     (surface.Reference), capped in bytes, so requests that differ only
//     in k, seed or strategy share the field's half of FRA and δ;
//   - graceful drain: Drain stops admitting requests (503), lets
//     in-flight requests and queued waiters finish, stops the job pool
//     so running sweeps checkpoint and park, and flushes checkpoints;
//   - /healthz, /metrics (Prometheus text) and /debug/pprof on the same
//     mux, with serve_requests_total{route,code}, serve_request_seconds,
//     serve_queue_depth, serve_cache_{hits,misses}_total,
//     serve_reference_{hits,misses}_total and serve_reference_bytes
//     riding the obs registry.
//
// Determinism contract: a served placement or evaluation is computed by
// exactly the code path the batch CLIs use, so the response for a given
// request is bit-identical to the CLI result for the same inputs
// (ci/serve_smoke.sh compares the two byte for byte).
package serve

import (
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // mounts the profiling handlers under /debug/pprof
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/surface"
)

// Config sizes one Server. Zero values take the documented defaults.
type Config struct {
	// MaxInflight is the per-tenant cap on concurrently computing
	// synchronous requests; 0 defaults to 4.
	MaxInflight int
	// QueueDepth is the per-tenant cap on requests waiting behind the
	// inflight cap (and on queued sweep jobs). A request arriving with
	// the queue full is rejected with 429 + Retry-After. 0 defaults to
	// 64.
	QueueDepth int
	// CacheSize is the maximum number of cached place/eval responses;
	// 0 defaults to 256, negative disables the cache.
	CacheSize int
	// MaxJobs is the number of sweep jobs computing at once; 0 defaults
	// to 1. Submissions beyond it queue (bounded by QueueDepth).
	MaxJobs int
	// SweepWorkers is the worker-pool size inside each sweep job;
	// 0 = runtime.NumCPU().
	SweepWorkers int
	// JobDir, when set, makes every sweep job also checkpoint to
	// <JobDir>/<job id>.ckpt so results survive the process.
	JobDir string
	// Metrics, when non-nil, receives the serve_* series plus whatever
	// the underlying strategy/sweep runs export. Observation only.
	Metrics *obs.Registry
	// Log, when non-nil, receives progress lines (job lifecycle, drain).
	Log io.Writer
}

func (c *Config) normalize() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.NumCPU()
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
}

// serveMetrics is the HTTP layer's observability surface (inert when the
// registry is nil, via the obs nil fast path).
type serveMetrics struct {
	reg     *obs.Registry
	seconds *obs.Histogram // serve_request_seconds
	depth   *obs.Gauge     // serve_queue_depth: waiters across all tenants
	hits    *obs.Counter   // serve_cache_hits_total
	misses  *obs.Counter   // serve_cache_misses_total
	refHits *obs.Counter   // serve_reference_hits_total
	refMiss *obs.Counter   // serve_reference_misses_total
	refSize *obs.Gauge     // serve_reference_bytes
	jobsSub *obs.Counter   // serve_jobs_submitted_total
	jobsFin *obs.Counter   // serve_jobs_completed_total
	jobsRun *obs.Gauge     // serve_jobs_running
}

func newServeMetrics(reg *obs.Registry) serveMetrics {
	if reg == nil {
		return serveMetrics{}
	}
	return serveMetrics{
		reg:     reg,
		seconds: reg.Histogram("serve_request_seconds", obs.ExpBuckets(1e-4, 2, 18)),
		depth:   reg.Gauge("serve_queue_depth"),
		hits:    reg.Counter("serve_cache_hits_total"),
		misses:  reg.Counter("serve_cache_misses_total"),
		refHits: reg.Counter("serve_reference_hits_total"),
		refMiss: reg.Counter("serve_reference_misses_total"),
		refSize: reg.Gauge("serve_reference_bytes"),
		jobsSub: reg.Counter("serve_jobs_submitted_total"),
		jobsFin: reg.Counter("serve_jobs_completed_total"),
		jobsRun: reg.Gauge("serve_jobs_running"),
	}
}

// requests returns the serve_requests_total series for one route/code
// pair. The obs registry is flat-named, so the Prometheus-style labels
// are baked into the metric name — each pair is its own series, exactly
// how the scraped exposition looks (cardinality is bounded: routes are
// mux patterns, never raw paths).
func (m serveMetrics) requests(route string, code int) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	return m.reg.Counter(fmt.Sprintf(`serve_requests_total{route=%q,code="%d"}`, route, code))
}

// Server is one placement service instance. Create with New, mount
// Handler, and Drain before exit.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	met   serveMetrics
	lim   *limiter
	cache *fifo[*rendered]
	refs  *fifo[*surface.Reference]
	jobs  *jobPool

	// drainMu is the drain barrier: every request holds it for reading
	// for its whole lifetime, Drain takes it for writing after flipping
	// draining, so "Drain returned" implies "no request in flight".
	drainMu  sync.RWMutex
	draining bool
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg.normalize()
	met := newServeMetrics(cfg.Metrics)
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		met:   met,
		lim:   newLimiter(cfg.MaxInflight, cfg.QueueDepth, met.depth),
		cache: newFIFO[*rendered](int64(cfg.CacheSize), met.hits, met.misses, nil),
		refs:  newFIFO[*surface.Reference](refCacheBytes, met.refHits, met.refMiss, met.refSize),
		jobs:  newJobPool(cfg, met),
	}
	s.handle("POST", "/v1/place", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompute(w, r, "place", new(PlaceRequest))
	})
	s.handle("POST", "/v1/eval", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompute(w, r, "eval", new(EvalRequest))
	})
	s.handle("POST", "/v1/sweeps", s.handleSweepSubmit)
	s.handle("GET", "/v1/sweeps/{id}", s.handleSweepStatus)
	s.handle("GET", "/v1/sweeps/{id}/results", s.handleSweepResults)
	s.handle("GET", "/v1/sweeps/{id}/report", s.handleSweepReport)
	s.handle("GET", "/healthz", s.handleHealthz)
	s.handle("GET", "/metrics", s.handleMetrics)
	s.mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return s
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully stops the server's compute: new requests are refused
// with 503, in-flight requests (including limiter waiters) run to
// completion, the job pool's running sweeps finish their in-flight
// cells and flush their checkpoints, and queued jobs are parked as
// interrupted. Idempotent; blocks until quiescent.
func (s *Server) Drain() {
	s.drainMu.Lock()
	first := !s.draining
	s.draining = true
	s.drainMu.Unlock() // in-flight requests finished once Lock was held
	if first {
		fmt.Fprintf(s.cfg.Log, "serve: draining: in-flight requests done, stopping job pool\n")
	}
	s.jobs.drain()
}

// handle mounts h at "METHOD path" behind the shared middleware: the
// drain barrier, panic recovery, the per-route/status counter and the
// request-latency histogram.
func (s *Server) handle(method, path string, h http.HandlerFunc) {
	s.mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
		t := s.met.seconds.StartTimer()
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		s.serveGuarded(cw, r, h)
		t.Stop()
		s.met.requests(path, cw.code).Inc()
	})
}

// serveGuarded runs h inside the drain barrier. The read lock is released
// on every exit, so a panicking handler cannot wedge Drain; the panic
// itself is logged and answered with a 500 (or recorded as one, if the
// handler had already sent its header).
func (s *Server) serveGuarded(cw *codeWriter, r *http.Request, h http.HandlerFunc) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		http.Error(cw, "server draining", http.StatusServiceUnavailable)
		return
	}
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		fmt.Fprintf(s.cfg.Log, "serve: %s %s: handler panic: %v\n", r.Method, r.URL.Path, v)
		if cw.wrote {
			cw.code = http.StatusInternalServerError
		} else {
			http.Error(cw, "internal server error", http.StatusInternalServerError)
		}
	}()
	h(cw, r)
}

// codeWriter records the response status for the request counter, and
// whether the header has gone out.
type codeWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (cw *codeWriter) WriteHeader(code int) {
	cw.code, cw.wrote = code, true
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *codeWriter) Write(b []byte) (int, error) {
	cw.wrote = true
	return cw.ResponseWriter.Write(b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// The drain barrier already 503s this route while draining, which is
	// exactly what a load balancer health check should see then.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.cfg.Metrics.WritePrometheus(w)
}
