package dsweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// protoSpec is a grid for protocol-level tests: results are fabricated,
// so the cells never actually run and the spec just needs shape.
func protoSpec() sweep.Spec {
	s := sweep.Spec{
		Name:   "proto",
		Fields: []sweep.FieldSpec{{Kind: "peaks"}},
		Ks:     []int{2, 3, 4},
		Rcs:    []float64{40},
		Seeds:  []int64{1, 2},
		GridN:  8,
		DeltaN: 8,
	}
	s.Normalize()
	return s
}

// realSpec is a grid small enough to genuinely run in tests.
func realSpec() sweep.Spec {
	s := sweep.Spec{
		Name:   "real",
		Fields: []sweep.FieldSpec{{Kind: "peaks"}, {Kind: "ridge"}},
		Ks:     []int{2, 4, 6},
		Rcs:    []float64{40},
		Seeds:  []int64{1},
		GridN:  10,
		DeltaN: 10,
	}
	s.Normalize()
	return s
}

// do round-trips one request through the coordinator's handler.
func do(t *testing.T, h http.Handler, method, path string, req, resp any) int {
	t.Helper()
	var body bytes.Buffer
	if req != nil {
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	r := httptest.NewRequest(method, path, &body)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if resp != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newTestCoordinator builds a coordinator on a fake clock with a long
// ticker period so only the test drives expiry timing.
func newTestCoordinator(t *testing.T, spec sweep.Spec, opts CoordinatorOptions) (*Coordinator, *fakeClock) {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = time.Minute // ticker fires at TTL/4: effectively never during a test
	}
	c, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	clk := newFakeClock()
	c.setNow(clk.now)
	return c, clk
}

// fakeSubmission fabricates a digest-valid result for cell idx.
func fakeSubmission(t *testing.T, spec *sweep.Spec, idx int, leaseID int64, worker string) ResultRequest {
	t.Helper()
	cells := spec.Cells()
	digest := spec.Digest(cells[idx])
	res := sweep.Result{
		Index: idx, Digest: digest,
		Field: cells[idx].Field.Label(), K: cells[idx].K, Rc: cells[idx].Rc, Seed: cells[idx].Seed,
		Delta: 10 + float64(idx), Connected: true,
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return ResultRequest{
		Worker: worker, LeaseID: leaseID, Index: idx, Digest: digest,
		Result: raw, Sum: sweep.IntegritySum(digest, raw),
	}
}

// lease grabs one lease for worker, failing unless status is ok.
func leaseOne(t *testing.T, h http.Handler, worker string) Lease {
	t.Helper()
	var lr LeaseResponse
	do(t, h, http.MethodPost, "/lease", LeaseRequest{Worker: worker}, &lr)
	if lr.Status != StatusOK || len(lr.Leases) != 1 {
		t.Fatalf("lease for %s: %+v", worker, lr)
	}
	return lr.Leases[0]
}

// TestLeaseLifecycle drives a full sweep through the raw protocol:
// lease, submit, complete, and the terminal "done" signal to late
// workers.
func TestLeaseLifecycle(t *testing.T) {
	spec := protoSpec()
	reg := obs.NewRegistry()
	c, _ := newTestCoordinator(t, spec, CoordinatorOptions{Metrics: reg})
	h := c.Handler()

	var sr SpecResponse
	do(t, h, http.MethodGet, "/spec", nil, &sr)
	if sr.SpecDigest != spec.SpecDigest() || sr.Name != "proto" {
		t.Fatalf("spec response: %+v", sr)
	}

	n := spec.NumCells()
	for i := 0; i < n; i++ {
		l := leaseOne(t, h, "w1")
		if l.Index != i {
			t.Fatalf("lease %d granted cell %d, want in-order grant", i, l.Index)
		}
		var rr ResultResponse
		do(t, h, http.MethodPost, "/result", fakeSubmission(t, &spec, l.Index, l.ID, "w1"), &rr)
		if rr.Status != ResultAccepted {
			t.Fatalf("cell %d: %+v", i, rr)
		}
	}
	var lr LeaseResponse
	do(t, h, http.MethodPost, "/lease", LeaseRequest{Worker: "w2"}, &lr)
	if lr.Status != StatusDone {
		t.Fatalf("post-completion lease: %+v", lr)
	}
	rep, complete, err := c.Wait(nil)
	if err != nil || !complete {
		t.Fatalf("Wait: complete=%v err=%v", complete, err)
	}
	if len(rep.Cells) != n || rep.Failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	snap := reg.Snapshot()
	if snap.Counters["dsweep_leases_granted_total"] != int64(n) ||
		snap.Counters["dsweep_results_accepted_total"] != int64(n) {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Histograms["dsweep_sweep_seconds"].Count != 1 {
		t.Fatal("end-to-end sweep histogram not observed")
	}
}

// TestLeaseExpiryRelease: a worker that never heartbeats loses its cell
// after TTL, and the next asker gets the same cell under a fresh
// fencing token.
func TestLeaseExpiryRelease(t *testing.T) {
	spec := protoSpec()
	reg := obs.NewRegistry()
	c, clk := newTestCoordinator(t, spec, CoordinatorOptions{Metrics: reg, LeaseTTL: 10 * time.Second})
	h := c.Handler()

	l1 := leaseOne(t, h, "dead")
	clk.advance(10*time.Second + time.Millisecond)
	l2 := leaseOne(t, h, "alive")
	// The expired cell goes to the back of the queue, so "alive" first
	// gets the next pending cell; drain until the original index
	// reappears.
	got := []Lease{l2}
	for l2.Index != l1.Index {
		l2 = leaseOne(t, h, "alive")
		got = append(got, l2)
		if len(got) > spec.NumCells() {
			t.Fatalf("cell %d never re-leased", l1.Index)
		}
	}
	if l2.ID == l1.ID {
		t.Fatal("re-lease reused the fencing token")
	}
	snap := reg.Snapshot()
	if snap.Counters["dsweep_leases_expired_total"] != 1 || snap.Counters["dsweep_leases_regranted_total"] != 1 {
		t.Fatalf("expiry counters: %+v", snap.Counters)
	}
}

// TestHeartbeatExtends: heartbeats inside the TTL keep a lease alive
// across several nominal lifetimes.
func TestHeartbeatExtends(t *testing.T) {
	spec := protoSpec()
	c, clk := newTestCoordinator(t, spec, CoordinatorOptions{LeaseTTL: 10 * time.Second})
	h := c.Handler()

	l := leaseOne(t, h, "w")
	for i := 0; i < 5; i++ {
		clk.advance(9 * time.Second)
		var hr HeartbeatResponse
		do(t, h, http.MethodPost, "/heartbeat", HeartbeatRequest{Worker: "w", LeaseIDs: []int64{l.ID}}, &hr)
		if len(hr.Lost) != 0 {
			t.Fatalf("beat %d lost lease: %+v", i, hr)
		}
	}
	// 45s after grant — far past the original 10s deadline — the result
	// still lands because every beat pushed the deadline out.
	var rr ResultResponse
	do(t, h, http.MethodPost, "/result", fakeSubmission(t, &spec, l.Index, l.ID, "w"), &rr)
	if rr.Status != ResultAccepted {
		t.Fatalf("result after extended lease: %+v", rr)
	}
}

// TestHeartbeatJustAfterExpiry pins the sharp edge: expiry is evaluated
// before the heartbeat, so a beat that lands even one tick past the
// deadline learns the lease is gone — whether or not the cell has been
// re-granted yet.
func TestHeartbeatJustAfterExpiry(t *testing.T) {
	spec := protoSpec()
	c, clk := newTestCoordinator(t, spec, CoordinatorOptions{LeaseTTL: 10 * time.Second})
	h := c.Handler()

	l := leaseOne(t, h, "w")
	clk.advance(10*time.Second + time.Millisecond)
	var hr HeartbeatResponse
	do(t, h, http.MethodPost, "/heartbeat", HeartbeatRequest{Worker: "w", LeaseIDs: []int64{l.ID}}, &hr)
	if len(hr.Lost) != 1 || hr.Lost[0] != l.ID {
		t.Fatalf("late heartbeat not reported lost: %+v", hr)
	}
	// And the fenced-out submission is stale even though the payload is
	// perfectly valid.
	var rr ResultResponse
	do(t, h, http.MethodPost, "/result", fakeSubmission(t, &spec, l.Index, l.ID, "w"), &rr)
	if rr.Status != ResultStale {
		t.Fatalf("submission under expired lease: %+v", rr)
	}
}

// TestStaleDuplicateCorrupt walks the whole byzantine admission matrix:
// re-leased cells fence out the old holder, completed cells absorb
// duplicates, and corrupted payloads bounce at every validation layer.
func TestStaleDuplicateCorrupt(t *testing.T) {
	spec := protoSpec()
	reg := obs.NewRegistry()
	c, clk := newTestCoordinator(t, spec, CoordinatorOptions{Metrics: reg, LeaseTTL: 10 * time.Second})
	h := c.Handler()

	// A leases cell 0, hangs past TTL; B gets it re-leased.
	lA := leaseOne(t, h, "A")
	clk.advance(11 * time.Second)
	var lB Lease
	for {
		lB = leaseOne(t, h, "B")
		if lB.Index == lA.Index {
			break
		}
	}

	var rr ResultResponse
	// A wakes up and submits its (valid, correct) result under the dead
	// lease: stale, rejected.
	subA := fakeSubmission(t, &spec, lA.Index, lA.ID, "A")
	do(t, h, http.MethodPost, "/result", subA, &rr)
	if rr.Status != ResultStale {
		t.Fatalf("dead-lease submission: %v", rr.Status)
	}
	// B lands the cell.
	do(t, h, http.MethodPost, "/result", fakeSubmission(t, &spec, lB.Index, lB.ID, "B"), &rr)
	if rr.Status != ResultAccepted {
		t.Fatalf("live submission: %v", rr.Status)
	}
	// A retries: the cell is done now, so the duplicate is absorbed.
	do(t, h, http.MethodPost, "/result", subA, &rr)
	if rr.Status != ResultDuplicate {
		t.Fatalf("duplicate after re-lease: %v", rr.Status)
	}

	// Corruption layers, each against a freshly leased cell. B grabbed
	// every cell while hunting for the re-lease above, so expire those
	// grants to free one up.
	clk.advance(11 * time.Second)
	l := leaseOne(t, h, "byz")
	bad := fakeSubmission(t, &spec, l.Index, l.ID, "byz")
	bad.Sum = "0000000000000000"
	do(t, h, http.MethodPost, "/result", bad, &rr)
	if rr.Status != ResultCorrupt {
		t.Fatalf("sum mismatch: %v", rr.Status)
	}
	bad = fakeSubmission(t, &spec, l.Index, l.ID, "byz")
	bad.Digest = "feedfacefeedface"
	bad.Sum = sweep.IntegritySum(bad.Digest, bad.Result)
	do(t, h, http.MethodPost, "/result", bad, &rr)
	if rr.Status != ResultCorrupt {
		t.Fatalf("digest mismatch: %v", rr.Status)
	}
	bad = fakeSubmission(t, &spec, l.Index, l.ID, "byz")
	bad.Result = json.RawMessage(`{"index":999}`)
	bad.Sum = sweep.IntegritySum(bad.Digest, bad.Result)
	do(t, h, http.MethodPost, "/result", bad, &rr)
	if rr.Status != ResultCorrupt {
		t.Fatalf("index mismatch: %v", rr.Status)
	}
	bad = fakeSubmission(t, &spec, l.Index, l.ID, "byz")
	bad.Index = -5
	do(t, h, http.MethodPost, "/result", bad, &rr)
	if rr.Status != ResultCorrupt {
		t.Fatalf("out-of-range index: %v", rr.Status)
	}
	snap := reg.Snapshot()
	if snap.Counters["dsweep_results_corrupt_total"] != 4 ||
		snap.Counters["dsweep_results_stale_total"] != 1 ||
		snap.Counters["dsweep_results_duplicate_total"] != 1 {
		t.Fatalf("admission counters: %+v", snap.Counters)
	}
}

// TestCoordinatorRestartResumes crashes the coordinator mid-sweep
// (Close without completion) and restarts it on the same checkpoint:
// the done cells replay, only the rest re-lease, and the final report
// is byte-identical to a single-coordinator run.
func TestCoordinatorRestartResumes(t *testing.T) {
	spec := protoSpec()
	n := spec.NumCells()
	ckpt := filepath.Join(t.TempDir(), "coord.ckpt")

	// Reference: one coordinator sees every cell.
	ref, _ := newTestCoordinator(t, spec, CoordinatorOptions{})
	hRef := ref.Handler()
	for i := 0; i < n; i++ {
		l := leaseOne(t, hRef, "w")
		var rr ResultResponse
		do(t, hRef, http.MethodPost, "/result", fakeSubmission(t, &spec, l.Index, l.ID, "w"), &rr)
	}
	refRep, _, err := ref.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteJSON(&want, refRep); err != nil {
		t.Fatal(err)
	}

	// First incarnation: complete 2 cells, then die.
	c1, _ := newTestCoordinator(t, spec, CoordinatorOptions{Checkpoint: ckpt})
	h1 := c1.Handler()
	for i := 0; i < 2; i++ {
		l := leaseOne(t, h1, "w")
		var rr ResultResponse
		do(t, h1, http.MethodPost, "/result", fakeSubmission(t, &spec, l.Index, l.ID, "w"), &rr)
		if rr.Status != ResultAccepted {
			t.Fatalf("cell %d: %v", i, rr.Status)
		}
	}
	// A cell leased but never completed at crash time must re-lease
	// cleanly after restart (leases are coordinator memory, not state).
	leaseOne(t, h1, "w")
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation resumes from its own checkpoint.
	c2, _ := newTestCoordinator(t, spec, CoordinatorOptions{Checkpoint: ckpt, Resume: true})
	if c2.Resumed() != 2 {
		t.Fatalf("resumed %d cells, want 2", c2.Resumed())
	}
	h2 := c2.Handler()
	for {
		var lr LeaseResponse
		do(t, h2, http.MethodPost, "/lease", LeaseRequest{Worker: "w2"}, &lr)
		if lr.Status == StatusDone {
			break
		}
		if lr.Status != StatusOK {
			t.Fatalf("lease: %+v", lr)
		}
		l := lr.Leases[0]
		var rr ResultResponse
		do(t, h2, http.MethodPost, "/result", fakeSubmission(t, &spec, l.Index, l.ID, "w2"), &rr)
		if rr.Status != ResultAccepted {
			t.Fatalf("cell %d after restart: %v", l.Index, rr.Status)
		}
	}
	rep, complete, err := c2.Wait(nil)
	if err != nil || !complete {
		t.Fatalf("Wait after restart: complete=%v err=%v", complete, err)
	}
	var got bytes.Buffer
	if err := sweep.WriteJSON(&got, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("restarted aggregate differs:\n%s\nvs\n%s", got.String(), want.String())
	}

	// A third incarnation refuses a different spec against the same
	// checkpoint.
	other := spec
	other.DeltaN = 9
	if _, err := NewCoordinator(other, CoordinatorOptions{Checkpoint: ckpt, Resume: true}); err == nil {
		t.Fatal("mismatched spec resumed against foreign checkpoint")
	}
}

// TestCoordinatorRefusesHeaderless: a coordinator resuming from a
// checkpoint with cell lines but no spec-digest header refuses it and
// names the header line to prepend, exactly as sweep.Run does.
func TestCoordinatorRefusesHeaderless(t *testing.T) {
	spec := protoSpec()
	ckpt := filepath.Join(t.TempDir(), "coord.ckpt")
	c1, _ := newTestCoordinator(t, spec, CoordinatorOptions{Checkpoint: ckpt})
	h1 := c1.Handler()
	l := leaseOne(t, h1, "w")
	var rr ResultResponse
	do(t, h1, http.MethodPost, "/result", fakeSubmission(t, &spec, l.Index, l.ID, "w"), &rr)
	if rr.Status != ResultAccepted {
		t.Fatalf("result: %v", rr.Status)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	_, cells, _ := strings.Cut(string(raw), "\n")
	if err := os.WriteFile(ckpt, []byte(cells), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(spec, CoordinatorOptions{Checkpoint: ckpt, Resume: true})
	want := `{"spec_digest":"` + spec.SpecDigest() + `"}`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("headerless resume: err=%v, want a refusal naming %s", err, want)
	}
}

// TestWorkersEndToEnd runs the real thing in-process: three RunWorker
// loops over HTTP against a live coordinator, with the aggregate
// byte-identical to sweep.Run on the same grid.
func TestWorkersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweep cells")
	}
	spec := realSpec()
	local, err := sweep.Run(spec, sweep.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteJSON(&want, local); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(spec, CoordinatorOptions{LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(WorkerOptions{
				Coordinator:  srv.URL,
				ID:           fmt.Sprintf("w%d", i),
				PollInterval: 20 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	rep, complete, err := c.Wait(nil)
	if err != nil || !complete {
		t.Fatalf("Wait: complete=%v err=%v", complete, err)
	}
	var got bytes.Buffer
	if err := sweep.WriteJSON(&got, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("distributed aggregate differs from local run")
	}
}

// TestWorkerStopDrains: a worker whose Stop is already closed exits
// without touching the sweep.
func TestWorkerStopDrains(t *testing.T) {
	spec := protoSpec()
	c, _ := newTestCoordinator(t, spec, CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	close(stop)
	stats, err := RunWorker(WorkerOptions{Coordinator: srv.URL, ID: "drain", Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != 0 {
		t.Fatalf("drained worker computed %d cells", stats.Computed)
	}
}

// TestWorkerRejectsForeignSpec: a worker whose local spec computation
// disagrees with the coordinator's digest refuses to join.
func TestWorkerRejectsForeignSpec(t *testing.T) {
	spec := protoSpec()
	mux := http.NewServeMux()
	mux.HandleFunc("/spec", func(w http.ResponseWriter, _ *http.Request) {
		raw, _ := json.Marshal(spec)
		writeJSON(w, SpecResponse{Name: "evil", SpecDigest: "not-the-digest", Spec: raw})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if _, err := RunWorker(WorkerOptions{Coordinator: srv.URL, ID: "w"}); err == nil {
		t.Fatal("worker joined a coordinator with a mismatched spec digest")
	}
}

// setNow swaps the clock under the lock; tests use it to drive expiry
// deterministically.
func (c *Coordinator) setNow(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}
