package sweep

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// RunOptions configures one sweep execution.
type RunOptions struct {
	// Workers bounds the worker pool; 0 uses runtime.NumCPU(). The
	// aggregated results are bit-identical for any worker count.
	Workers int
	// Checkpoint is the JSONL checkpoint path; "" disables
	// checkpointing (and therefore resume).
	Checkpoint string
	// Resume replays completed cells from the checkpoint instead of
	// recomputing them, under OpenLedger's resume rule.
	Resume bool
	// MaxCells stops the run after completing that many new cells,
	// leaving the rest for a later -resume. It exists to make
	// "interrupted mid-sweep" a deterministic, testable event rather
	// than a race against a kill signal; 0 means unlimited.
	MaxCells int
	// Stop, when non-nil, aborts cleanly when closed: workers finish
	// the cells they hold, checkpoint them, and return an interrupted
	// report. cmd/sweep wires SIGINT here.
	Stop <-chan struct{}
	// Metrics, when non-nil, receives the sweep counters
	// (sweep_cells_started/completed/failed/resumed_total), the
	// per-cell wall-time histogram sweep_cell_seconds, and the
	// worker-pool gauges sweep_workers / sweep_workers_busy.
	// Observation only: results are bit-identical either way.
	Metrics *obs.Registry
	// Log, when non-nil, receives one progress line per finished cell.
	// Progress lines are for humans; only the aggregated output is
	// deterministic.
	Log io.Writer
}

// Report is the outcome of one Run: the per-cell results in cell-index
// order plus completion bookkeeping.
type Report struct {
	// Name echoes the spec name.
	Name string `json:"name"`
	// Cells are the results of all finished cells, ordered by index.
	// A complete run has exactly NumCells entries; an interrupted one
	// fewer.
	Cells []Result `json:"cells"`
	// Total is the grid size and Failed the number of finished cells
	// with a non-empty Err; both are deterministic for a complete run.
	Total  int `json:"total"`
	Failed int `json:"failed"`
	// Computed, Resumed and Interrupted describe THIS invocation — how
	// many cells ran live versus replayed from the checkpoint, and
	// whether cells are missing (MaxCells or Stop cut the run short, or
	// a distributed sweep did not finish). They are excluded
	// from the serialized report so that a resumed sweep's aggregated
	// output stays byte-identical to an uninterrupted one.
	Computed    int  `json:"-"`
	Resumed     int  `json:"-"`
	Interrupted bool `json:"-"`
}

// sweepMetrics is the engine's observability surface; the zero value
// (nil registry) is inert through the obs nil fast path.
type sweepMetrics struct {
	started     *obs.Counter   // sweep_cells_started_total
	completed   *obs.Counter   // sweep_cells_completed_total
	failed      *obs.Counter   // sweep_cells_failed_total
	resumed     *obs.Counter   // sweep_cells_resumed_total
	cellSeconds *obs.Histogram // sweep_cell_seconds
	workers     *obs.Gauge     // sweep_workers: pool size
	busy        *obs.Gauge     // sweep_workers_busy: cells in flight
}

func newSweepMetrics(reg *obs.Registry) sweepMetrics {
	if reg == nil {
		return sweepMetrics{}
	}
	return sweepMetrics{
		started:     reg.Counter("sweep_cells_started_total"),
		completed:   reg.Counter("sweep_cells_completed_total"),
		failed:      reg.Counter("sweep_cells_failed_total"),
		resumed:     reg.Counter("sweep_cells_resumed_total"),
		cellSeconds: reg.Histogram("sweep_cell_seconds", obs.ExpBuckets(1e-3, 2, 16)),
		workers:     reg.Gauge("sweep_workers"),
		busy:        reg.Gauge("sweep_workers_busy"),
	}
}

// Run executes the spec's scenario grid: it opens the spec's Ledger
// against opts.Checkpoint (replaying it with opts.Resume), runs the
// pending cells on the ledger's worker pool, and returns the report.
func Run(spec Spec, opts RunOptions) (*Report, error) {
	l, err := OpenLedger(spec, opts.Checkpoint, opts.Resume, opts.Log)
	if err != nil {
		return nil, err
	}
	rep, err := l.Run(opts)
	if cerr := l.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return rep, err
}

// Run computes the ledger's pending cells on a worker pool, recording
// each into the ledger, which stays open; opts.Checkpoint and
// opts.Resume are ignored. Cells are sharded by an atomic cursor and run
// in isolation (panics become per-cell errors), so the report is
// bit-identical to a serial run. The workers share the most recent
// environment and its reference while their cells are on it (envCache).
func (l *Ledger) Run(opts RunOptions) (*Report, error) {
	met := newSweepMetrics(opts.Metrics)
	met.resumed.Add(int64(l.resumed))
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	pending := l.Pending()
	if opts.MaxCells > 0 && opts.MaxCells < len(pending) {
		pending = pending[:opts.MaxCells]
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, len(pending)))
	met.workers.Set(float64(workers))

	var (
		next     atomic.Int64
		failed   atomic.Bool // a checkpoint write failed: stop taking cells
		mu       sync.Mutex  // serializes records with their log lines; guards recErr
		recErr   error
		wg       sync.WaitGroup
		timeCell = met.cellSeconds.StartTimer
	)
	var env envCache
	worker := func() {
		defer wg.Done()
		for !failed.Load() {
			select {
			case <-opts.Stop: // a nil Stop never fires
				return
			default:
			}
			n := int(next.Add(1)) - 1
			if n >= len(pending) {
				return
			}
			i := pending[n]
			met.started.Inc()
			met.busy.Add(1)
			t := timeCell()
			r := runCell(&l.spec, l.cells[i], opts.Metrics, &env)
			t.Stop()
			met.busy.Add(-1)
			met.completed.Inc()
			outcome := fmt.Sprintf("δ=%.2f", r.Delta)
			if r.Err != "" {
				met.failed.Inc()
				outcome = "FAILED: " + r.Err
			}
			mu.Lock()
			if err := l.Record(r); err != nil {
				recErr = cmp.Or(recErr, err) // keep the first
				failed.Store(true)
			} else {
				fmt.Fprintf(logw, "cell %d/%d %s k=%d rc=%g %s rate=%g seed=%d: %s\n",
					i+1, len(l.cells), r.Field, r.K, r.Rc, r.Strategy, r.FaultRate, r.Seed, outcome)
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	if recErr != nil {
		return nil, recErr
	}
	return l.Report(), nil
}

// NewReport assembles a Report from per-cell results in cell-index order,
// skipping indices whose done flag is false. It is the aggregation step
// behind Ledger.Report, which every front door reports through — which
// is why a distributed sweep's or a job's output is byte-identical to a
// local run's.
func NewReport(spec *Spec, results []Result, done []bool) *Report {
	rep := &Report{Name: spec.Name, Total: spec.NumCells()}
	for i := range results {
		if !done[i] {
			continue
		}
		rep.Cells = append(rep.Cells, results[i])
		if results[i].Err != "" {
			rep.Failed++
		}
	}
	return rep
}
