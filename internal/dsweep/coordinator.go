package dsweep

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// CoordinatorOptions configures one coordinator.
type CoordinatorOptions struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat;
	// 0 defaults to 15s. Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// Checkpoint is the JSONL path accepted results are persisted to
	// before they are acknowledged; "" disables persistence (and
	// therefore coordinator crash recovery).
	Checkpoint string
	// Resume replays the checkpoint's completed cells instead of
	// re-leasing them — this is how a crashed coordinator restarts.
	Resume bool
	// Metrics, when non-nil, receives the lease/result counters, the
	// worker-liveness gauge and the end-to-end sweep histogram.
	Metrics *obs.Registry
	// Log, when non-nil, receives progress and warning lines.
	Log io.Writer
}

// cellState is the coordinator's lease view of one grid cell.
type cellState struct {
	// leaseID is the cell's current live lease (the fencing token);
	// 0 when the cell is pending or done.
	leaseID  int64
	worker   string
	deadline time.Time
	// everLeased marks the first grant; regrants counts how many times
	// the cell was re-leased after that — the per-cell retry counter.
	everLeased bool
	regrants   int
}

// coordMetrics is the coordinator's observability surface (inert when
// the registry is nil, via the obs nil fast path).
type coordMetrics struct {
	granted      *obs.Counter   // dsweep_leases_granted_total
	expired      *obs.Counter   // dsweep_leases_expired_total
	regranted    *obs.Counter   // dsweep_leases_regranted_total
	accepted     *obs.Counter   // dsweep_results_accepted_total
	duplicate    *obs.Counter   // dsweep_results_duplicate_total
	stale        *obs.Counter   // dsweep_results_stale_total
	corrupt      *obs.Counter   // dsweep_results_corrupt_total
	cellRetries  *obs.Histogram // dsweep_cell_retries: re-grants per completed cell
	workersLive  *obs.Gauge     // dsweep_workers_live
	cellsDone    *obs.Gauge     // dsweep_cells_done
	sweepSeconds *obs.Histogram // dsweep_sweep_seconds: end-to-end wall time
}

func newCoordMetrics(reg *obs.Registry) coordMetrics {
	if reg == nil {
		return coordMetrics{}
	}
	return coordMetrics{
		granted:      reg.Counter("dsweep_leases_granted_total"),
		expired:      reg.Counter("dsweep_leases_expired_total"),
		regranted:    reg.Counter("dsweep_leases_regranted_total"),
		accepted:     reg.Counter("dsweep_results_accepted_total"),
		duplicate:    reg.Counter("dsweep_results_duplicate_total"),
		stale:        reg.Counter("dsweep_results_stale_total"),
		corrupt:      reg.Counter("dsweep_results_corrupt_total"),
		cellRetries:  reg.Histogram("dsweep_cell_retries", obs.ExpBuckets(1, 2, 8)),
		workersLive:  reg.Gauge("dsweep_workers_live"),
		cellsDone:    reg.Gauge("dsweep_cells_done"),
		sweepSeconds: reg.Histogram("dsweep_sweep_seconds", obs.ExpBuckets(0.1, 2, 16)),
	}
}

// Coordinator owns a sweep's lease table, admits results into the
// sweep's ledger, and serves both over HTTP. Lease state sits behind one
// mutex; lease expiry is evaluated lazily at the top of every request
// (and by a background ticker, so progress does not depend on traffic).
// Determinism note: which worker computes a cell is timing-dependent,
// but every worker computes the same bytes, so the aggregate is not.
type Coordinator struct {
	ledger   *sweep.Ledger
	specJSON []byte
	ttl      time.Duration
	logw     io.Writer
	met      coordMetrics

	mu       sync.Mutex
	now      func() time.Time // injectable clock; guarded by mu for tests
	state    []cellState
	byLease  map[int64]int // live lease ID -> cell index
	pending  []int         // FIFO of cell indices awaiting a lease
	workers  map[string]time.Time
	nextID   int64
	err      error
	started  time.Time
	finished bool

	complete chan struct{} // closed once done==total or err is set
	stopTick chan struct{}
	closed   bool
}

// NewCoordinator opens the spec's ledger (replaying the checkpoint when
// resuming) and starts the expiry ticker. Call Close when done with it.
func NewCoordinator(spec sweep.Spec, opts CoordinatorOptions) (*Coordinator, error) {
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	l, err := sweep.OpenLedger(spec, opts.Checkpoint, opts.Resume, logw)
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(l.Spec())
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("dsweep: marshal spec: %w", err)
	}
	c := &Coordinator{
		ledger:   l,
		specJSON: specJSON,
		ttl:      ttl,
		logw:     logw,
		met:      newCoordMetrics(opts.Metrics),
		now:      time.Now,
		state:    make([]cellState, l.Spec().NumCells()),
		byLease:  make(map[int64]int),
		pending:  l.Pending(),
		workers:  make(map[string]time.Time),
		complete: make(chan struct{}),
		stopTick: make(chan struct{}),
	}
	done, _ := l.Progress()
	c.met.cellsDone.Set(float64(done))
	c.started = c.now()
	if done == len(c.state) {
		c.finished = true
		close(c.complete)
	}

	// The ticker keeps expiry and the liveness gauge moving even when no
	// worker is talking to us (e.g. every worker just died).
	tick := ttl / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-c.stopTick:
				return
			case <-t.C:
				c.mu.Lock()
				c.expireLocked()
				c.refreshWorkerGaugeLocked()
				c.mu.Unlock()
			}
		}
	}()
	return c, nil
}

// Resumed is the number of cells replayed from the checkpoint.
func (c *Coordinator) Resumed() int { return c.ledger.Resumed() }

// Total is the grid size.
func (c *Coordinator) Total() int { return len(c.state) }

// expireLocked reclaims every lease whose deadline has passed: the cell
// goes back on the pending queue (in index order, for determinism of the
// re-grant sequence) and the old lease ID dies forever.
func (c *Coordinator) expireLocked() {
	now := c.now()
	var reclaimed []int
	for id, idx := range c.byLease {
		st := &c.state[idx]
		if st.leaseID == id && now.After(st.deadline) {
			reclaimed = append(reclaimed, idx)
		}
	}
	sort.Ints(reclaimed)
	for _, idx := range reclaimed {
		st := &c.state[idx]
		delete(c.byLease, st.leaseID)
		fmt.Fprintf(c.logw, "dsweep: lease %d on cell %d (worker %s) expired; re-queueing\n", st.leaseID, idx, st.worker)
		st.leaseID = 0
		st.worker = ""
		c.pending = append(c.pending, idx)
		c.met.expired.Inc()
	}
}

// refreshWorkerGaugeLocked counts workers seen within 3×TTL.
func (c *Coordinator) refreshWorkerGaugeLocked() {
	cutoff := c.now().Add(-3 * c.ttl)
	live := 0
	for id, seen := range c.workers {
		if seen.After(cutoff) {
			live++
		} else {
			delete(c.workers, id)
		}
	}
	c.met.workersLive.Set(float64(live))
}

// touchLocked records worker liveness.
func (c *Coordinator) touchLocked(worker string) {
	if worker != "" {
		c.workers[worker] = c.now()
	}
}

// finishLocked seals the sweep exactly once and unblocks Wait. err is
// the fatal coordinator error (checkpoint persistence failure); a nil
// err means the sweep completed and records the end-to-end histogram
// sample.
func (c *Coordinator) finishLocked(err error) {
	if c.finished {
		return
	}
	c.finished, c.err = true, err
	if err == nil {
		c.met.sweepSeconds.Observe(c.now().Sub(c.started).Seconds())
	}
	close(c.complete)
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/spec", c.handleSpec)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/result", c.handleResult)
	mux.HandleFunc("/status", c.handleStatus)
	return mux
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeJSON parses a bounded request body.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, SpecResponse{Name: c.ledger.Spec().Name, SpecDigest: c.ledger.SpecDigest(), Spec: c.specJSON})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	if max > 64 {
		max = 64
	}
	c.mu.Lock()
	c.touchLocked(req.Worker)
	c.expireLocked()
	resp := LeaseResponse{Total: len(c.state)}
	now := c.now()
	for len(resp.Leases) < max && len(c.pending) > 0 {
		idx := c.pending[0]
		c.pending = c.pending[1:]
		if c.ledger.Done(idx) { // a stale queue entry (result landed while queued)
			continue
		}
		st := &c.state[idx]
		c.nextID++
		st.leaseID = c.nextID
		st.worker = req.Worker
		st.deadline = now.Add(c.ttl)
		if st.everLeased {
			st.regrants++
			c.met.regranted.Inc()
		}
		st.everLeased = true
		c.byLease[st.leaseID] = idx
		c.met.granted.Inc()
		resp.Leases = append(resp.Leases, Lease{
			ID: st.leaseID, Index: idx, Digest: c.ledger.Digest(idx), TTLMillis: c.ttl.Milliseconds(),
		})
	}
	resp.Done, _ = c.ledger.Progress()
	switch {
	case len(resp.Leases) > 0:
		resp.Status = StatusOK
	case resp.Done == resp.Total:
		resp.Status = StatusDone
	default:
		resp.Status = StatusWait
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.touchLocked(req.Worker)
	// Expiry runs first, so the semantics are sharp: a heartbeat that
	// arrives even just after the deadline finds its lease reclaimed and
	// learns it lost the cell.
	c.expireLocked()
	var resp HeartbeatResponse
	now := c.now()
	for _, id := range req.LeaseIDs {
		idx, ok := c.byLease[id]
		if !ok {
			resp.Lost = append(resp.Lost, id)
			continue
		}
		c.state[idx].deadline = now.Add(c.ttl)
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.touchLocked(req.Worker)
	c.expireLocked()
	status, err := c.admitLocked(&req)
	done, _ := c.ledger.Progress()
	c.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, ResultResponse{Status: status, Done: done == len(c.state)})
}

// admitLocked applies the result-admission policy (see the package
// comment) and returns the protocol status, or an error when durably
// recording an accepted result failed — the one coordinator-fatal case.
func (c *Coordinator) admitLocked(req *ResultRequest) (string, error) {
	if req.Index < 0 || req.Index >= len(c.state) {
		c.met.corrupt.Inc()
		return ResultCorrupt, nil
	}
	st := &c.state[req.Index]
	var res sweep.Result
	switch {
	case req.Digest != c.ledger.Digest(req.Index),
		sweep.IntegritySum(req.Digest, req.Result) != req.Sum,
		json.Unmarshal(req.Result, &res) != nil,
		res.Index != req.Index,
		res.Digest != req.Digest:
		c.met.corrupt.Inc()
		fmt.Fprintf(c.logw, "dsweep: rejected corrupt result for cell %d from worker %s\n", req.Index, req.Worker)
		return ResultCorrupt, nil
	}
	if c.ledger.Done(req.Index) {
		c.met.duplicate.Inc()
		return ResultDuplicate, nil
	}
	if st.leaseID == 0 || st.leaseID != req.LeaseID {
		c.met.stale.Inc()
		fmt.Fprintf(c.logw, "dsweep: rejected stale result for cell %d from worker %s (lease %d)\n",
			req.Index, req.Worker, req.LeaseID)
		return ResultStale, nil
	}
	// The ledger persists before marking done: once the worker hears
	// "accepted" the cell must survive a coordinator crash.
	if err := c.ledger.Record(res); err != nil {
		c.finishLocked(fmt.Errorf("dsweep: checkpoint result: %w", err))
		return "", err
	}
	delete(c.byLease, st.leaseID)
	st.leaseID = 0
	done, _ := c.ledger.Progress()
	c.met.accepted.Inc()
	c.met.cellsDone.Set(float64(done))
	c.met.cellRetries.Observe(float64(st.regrants))
	if done == len(c.state) {
		c.finishLocked(nil)
	}
	return ResultAccepted, nil
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	c.expireLocked()
	c.refreshWorkerGaugeLocked()
	done, failed := c.ledger.Progress()
	resp := StatusResponse{
		Name:       c.ledger.Spec().Name,
		SpecDigest: c.ledger.SpecDigest(),
		Total:      len(c.state),
		Done:       done,
		Failed:     failed,
		Leased:     len(c.byLease),
		Pending:    len(c.pending),
		Workers:    len(c.workers),
		Complete:   done == len(c.state),
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

// Wait blocks until the sweep completes, the coordinator fails, or stop
// closes. It returns the report over all finished cells, whether the
// sweep ran to completion, and the first fatal error. An interrupted
// coordinator's progress lives in its checkpoint; restart with Resume.
func (c *Coordinator) Wait(stop <-chan struct{}) (*sweep.Report, bool, error) {
	if stop == nil {
		<-c.complete
	} else {
		select {
		case <-c.complete:
		case <-stop:
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, false, c.err
	}
	rep := c.ledger.Report()
	return rep, !rep.Interrupted, nil
}

// Close stops the expiry ticker and closes the ledger. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stopTick)
	}
	c.mu.Unlock()
	return c.ledger.Close()
}
