package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"repro/internal/sweep"
)

// Job states. A job moves queued → running → done/failed, or to
// interrupted when a drain stops it first; interrupted jobs keep every
// cell they streamed (and their on-disk checkpoint, when JobDir is set,
// from which a batch -resume can finish the grid).
const (
	jobQueued      = "queued"
	jobRunning     = "running"
	jobDone        = "done"
	jobFailed      = "failed"
	jobInterrupted = "interrupted"
)

// job is one asynchronous sweep. ledger is its run's bookkeeping,
// opened when the job takes a compute slot: progress, the results
// stream and the report all read from it.
type job struct {
	id     string
	spec   sweep.Spec
	digest string

	mu     sync.Mutex
	state  string
	errMsg string
	ledger *sweep.Ledger
}

// JobStatus is the poll response for one sweep job.
type JobStatus struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	SpecDigest string `json:"spec_digest"`
	State      string `json:"state"`
	Total      int    `json:"total"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Error      string `json:"error,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Name: j.spec.Name, SpecDigest: j.digest, State: j.state,
		Total: j.spec.NumCells(), Error: j.errMsg,
	}
	if j.ledger != nil {
		st.Done, st.Failed = j.ledger.Progress()
	}
	return st
}

// jobPool runs submitted sweeps on a bounded in-process pool: at most
// MaxJobs compute at once, at most QueueDepth more wait behind them,
// and every job runs the batch engine's pool (sweep.Ledger.Run) with the
// server's stop channel wired in so a drain checkpoints in-flight cells
// and parks the rest.
type jobPool struct {
	cfg Config
	met serveMetrics

	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	sem     chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	drained bool
}

func newJobPool(cfg Config, met serveMetrics) *jobPool {
	return &jobPool{
		cfg:  cfg,
		met:  met,
		jobs: make(map[string]*job),
		sem:  make(chan struct{}, cfg.MaxJobs),
		stop: make(chan struct{}),
	}
}

// submit registers a sweep job and schedules it. It returns false when
// the pool's queue is full (the 429 path) or the pool is draining (503
// is handled by the middleware before we get here, but a drain racing a
// submit lands in the same refusal).
func (p *jobPool) submit(spec sweep.Spec) (*job, bool) {
	p.mu.Lock()
	if p.drained {
		p.mu.Unlock()
		return nil, false
	}
	queued := 0
	for _, j := range p.jobs {
		if j.currentState() == jobQueued {
			queued++
		}
	}
	if queued >= p.cfg.QueueDepth {
		p.mu.Unlock()
		return nil, false
	}
	p.seq++
	j := &job{
		id:     fmt.Sprintf("j%d-%s", p.seq, spec.SpecDigest()[:8]),
		spec:   spec,
		digest: spec.SpecDigest(),
		state:  jobQueued,
	}
	p.jobs[j.id] = j
	p.wg.Add(1)
	p.mu.Unlock()

	p.met.jobsSub.Inc()
	go p.run(j)
	return j, true
}

func (j *job) currentState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// run takes a compute slot, opens the job's ledger — only then, so a job
// parked while queued leaves no checkpoint file — executes the sweep,
// and records the outcome.
func (p *jobPool) run(j *job) {
	defer p.wg.Done()
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-p.stop:
		j.setState(jobInterrupted)
		return
	}
	select {
	case <-p.stop: // drained while queued on the slot
		j.setState(jobInterrupted)
		return
	default:
	}

	path := ""
	if p.cfg.JobDir != "" {
		path = filepath.Join(p.cfg.JobDir, j.id+".ckpt")
	}
	l, err := sweep.OpenLedger(j.spec, path, false, nil)
	if err != nil {
		j.fail(err)
		return
	}
	j.mu.Lock()
	j.state, j.ledger = jobRunning, l
	j.mu.Unlock()
	p.met.jobsRun.Add(1)
	defer p.met.jobsRun.Add(-1)
	fmt.Fprintf(p.cfg.Log, "serve: job %s running: %s, %d cells\n", j.id, j.spec.Name, j.spec.NumCells())
	rep, err := l.Run(sweep.RunOptions{Workers: p.cfg.SweepWorkers, Stop: p.stop, Metrics: p.cfg.Metrics})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		j.fail(err)
		return
	}
	if rep.Interrupted {
		j.setState(jobInterrupted)
		fmt.Fprintf(p.cfg.Log, "serve: job %s interrupted after %d/%d cells\n", j.id, len(rep.Cells), rep.Total)
		return
	}
	j.setState(jobDone)
	p.met.jobsFin.Inc()
	fmt.Fprintf(p.cfg.Log, "serve: job %s done: %d/%d cells (%d failed)\n", j.id, len(rep.Cells), rep.Total, rep.Failed)
}

func (j *job) fail(err error) {
	j.mu.Lock()
	j.state = jobFailed
	j.errMsg = err.Error()
	j.mu.Unlock()
}

func (p *jobPool) get(id string) *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobs[id]
}

// drain refuses new jobs, stops running sweeps (they finish in-flight
// cells and flush their checkpoints inside Ledger.Run), and waits for
// every job goroutine to park. Idempotent.
func (p *jobPool) drain() {
	p.mu.Lock()
	if !p.drained {
		p.drained = true
		close(p.stop)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := sweep.LoadSpec(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	j, ok := s.jobs.submit(spec)
	if !ok {
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleSweepResults streams the job's completed cells so far as its
// ledger renders them: the spec-digest header line, then one
// self-checking line per cell in completion order — the bytes of the
// job's on-disk checkpoint, so `sweep -resume` semantics and tooling
// apply directly.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	l := j.ledger
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if l == nil {
		return // still queued: nothing streamed yet
	}
	stream, err := l.Stream()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "render results: %v", err)
		return
	}
	w.Write(stream)
}

// handleSweepReport serves the finished job's aggregate, byte-identical
// to `cmd/sweep -out report.json` for the same spec.
func (s *Server) handleSweepReport(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, l := j.state, j.ledger
	j.mu.Unlock()
	if state != jobDone {
		httpError(w, http.StatusConflict, "job %s is %s, report available once done", j.id, state)
		return
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, l.Report()); err != nil {
		httpError(w, http.StatusInternalServerError, "render report: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
