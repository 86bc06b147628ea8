package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestServeLoad drives 1000 concurrent synchronous requests (distinct
// payloads, cache disabled, so every one takes the limiter path)
// through the full handler stack and requires: every request succeeds,
// the queue drains back to zero, and the request counter accounts for
// every call.
func TestServeLoad(t *testing.T) {
	const n = 1000
	s, reg := newTestServer(t, func(c *Config) {
		c.MaxInflight = 8
		c.QueueDepth = n // nothing should be rejected in this test
		c.CacheSize = -1
	})
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(
				`{"field":{"kind":"peaks"},"nodes":[{"x":%d,"y":%d},{"x":50,"y":70},{"x":80,"y":30}],"rc":60,"delta_n":8}`,
				10+i%80, 10+(i*7)%80)
			w := post(s, "/v1/eval", body, map[string]string{"X-API-Key": fmt.Sprintf("tenant-%d", i%4)})
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: code %d", i, c)
		}
	}
	if d := s.lim.queueDepth(); d != 0 {
		t.Fatalf("queue depth %d after load, want 0", d)
	}
	snap := reg.Snapshot()
	if g := snap.Gauges["serve_queue_depth"]; g != 0 {
		t.Fatalf("serve_queue_depth gauge %g after load, want 0", g)
	}
	if c := snap.Counters[`serve_requests_total{route="/v1/eval",code="200"}`]; c != n {
		t.Fatalf("request counter %d, want %d", c, n)
	}
	if h := snap.Histograms["serve_request_seconds"]; h.Count != n {
		t.Fatalf("latency histogram count %d, want %d", h.Count, n)
	}
}

// TestServeBackpressure pins the 429 + Retry-After contract down
// deterministically: with the tenant's only compute slot held and a
// queue of 2, exactly 3 of 5 simultaneous requests must be rejected,
// the 2 queued ones must finish once the slot frees, other tenants
// must be unaffected, and serve_queue_depth must return to zero.
func TestServeBackpressure(t *testing.T) {
	s, reg := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.QueueDepth = 2
		c.CacheSize = -1
	})
	// Occupy the tenant's single inflight slot directly so the admission
	// state during the burst is exact, not timing-dependent.
	release, ok := s.lim.acquire("hot")
	if !ok {
		t.Fatal("priming acquire refused")
	}

	const burst = 5
	type result struct {
		code       int
		retryAfter string
	}
	results := make(chan result, burst)
	body := `{"field":{"kind":"peaks"},"nodes":[{"x":20,"y":20},{"x":50,"y":70},{"x":80,"y":30}],"rc":60,"delta_n":8}`
	for i := 0; i < burst; i++ {
		go func() {
			w := post(s, "/v1/eval", body, map[string]string{"X-API-Key": "hot"})
			results <- result{w.Code, w.Result().Header.Get("Retry-After")}
		}()
	}

	// The slot is held, so the burst resolves to exactly 2 queued waiters
	// and 3 immediate rejections — collect the rejections first.
	for i := 0; i < burst-2; i++ {
		r := <-results
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("over-limit request: code %d, want 429", r.code)
		}
		if r.retryAfter != retryAfterSeconds {
			t.Fatalf("429 Retry-After = %q, want %q", r.retryAfter, retryAfterSeconds)
		}
	}
	waitFor(t, "2 queued waiters", func() bool { return s.lim.queueDepth() == 2 })

	// A different tenant is not starved by the hot one.
	if w := post(s, "/v1/eval", body, map[string]string{"X-API-Key": "cold"}); w.Code != http.StatusOK {
		t.Fatalf("independent tenant: code %d, want 200", w.Code)
	}

	release() // free the slot; the queued pair runs to completion
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Fatalf("queued request: code %d, want 200", r.code)
		}
	}
	waitFor(t, "queue drained", func() bool { return s.lim.queueDepth() == 0 })
	waitFor(t, "serve_queue_depth back to zero", func() bool {
		return reg.Snapshot().Gauges["serve_queue_depth"] == 0
	})
	snap := reg.Snapshot()
	if c := snap.Counters[`serve_requests_total{route="/v1/eval",code="429"}`]; c != burst-2 {
		t.Fatalf("429 counter %d, want %d", c, burst-2)
	}
}

// TestServeDrainCompletesInFlight proves the drain guarantee with a
// handler pinned mid-request: Drain must block until the in-flight
// request finishes (it gets its full 200), then every later request
// sees 503.
func TestServeDrainCompletesInFlight(t *testing.T) {
	s, _ := newTestServer(t, nil)
	started := make(chan struct{})
	unblock := make(chan struct{})
	s.handle("POST", "/test/block", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-unblock
		w.Write([]byte("finished"))
	})

	reqDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { reqDone <- post(s, "/test/block", "", nil) }()
	<-started

	drainDone := make(chan struct{})
	go func() { s.Drain(); close(drainDone) }()
	select {
	case <-drainDone:
		t.Fatal("Drain returned with a request still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(unblock)
	w := <-reqDone
	if w.Code != http.StatusOK || w.Body.String() != "finished" {
		t.Fatalf("in-flight request across drain: code %d body %q", w.Code, w.Body.String())
	}
	select {
	case <-drainDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the in-flight request finished")
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		if w := get(s, path); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s after drain: code %d, want 503", path, w.Code)
		}
	}
	if w := post(s, "/v1/place", placeBody, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("place after drain: code %d, want 503", w.Code)
	}
	if d := s.lim.queueDepth(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
}

// TestServeDrainParksJobs drains a server with one running and one
// queued sweep job: both must land in a terminal state, the queued one
// interrupted, and whatever the running job streamed must be a
// well-formed checkpoint prefix (no dropped cells).
func TestServeDrainParksJobs(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.MaxJobs = 1
		c.SweepWorkers = 1
	})
	big := `{"name":"drainme","fields":[{"kind":"forest"}],"ks":[20,30,40],"rcs":[10,15],"grid_n":64,"delta_n":64,"random_draws":2}`
	w1 := post(s, "/v1/sweeps", big, nil)
	if w1.Code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", w1.Code)
	}
	var st1, st2 JobStatus
	if err := json.Unmarshal(w1.Body.Bytes(), &st1); err != nil {
		t.Fatal(err)
	}
	// Let job 1 take the single compute slot (header streamed) before
	// submitting job 2, so job 2 is deterministically the queued one.
	j1 := s.jobs.get(st1.ID)
	waitFor(t, "job 1 running", func() bool {
		if j1.currentState() != jobRunning {
			return false
		}
		j1.mu.Lock()
		defer j1.mu.Unlock()
		return j1.ledger != nil
	})
	w2 := post(s, "/v1/sweeps", jobSpec, nil)
	if w2.Code != http.StatusAccepted {
		t.Fatalf("submit 2: %d", w2.Code)
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &st2); err != nil {
		t.Fatal(err)
	}
	j2 := s.jobs.get(st2.ID)

	s.Drain()

	terminal := map[string]bool{jobDone: true, jobInterrupted: true}
	if !terminal[j1.currentState()] {
		t.Fatalf("job 1 state %q after drain, want terminal", j1.currentState())
	}
	// Job 2 was queued behind MaxJobs=1 when the drain hit; it must have
	// been parked, never run.
	if got := j2.currentState(); got != jobInterrupted {
		t.Fatalf("queued job state %q after drain, want %q", got, jobInterrupted)
	}

	// Nothing the running job completed was dropped: its stream is a
	// header plus exactly status.Done well-formed cell lines.
	st := j1.status()
	j1.mu.Lock()
	raw, err := j1.ledger.Stream()
	j1.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	stream := string(raw)
	lines := strings.Split(strings.TrimSuffix(stream, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("running job streamed no header before drain")
	}
	if got := len(lines) - 1; got != st.Done {
		t.Fatalf("streamed %d cell lines, status says %d done", got, st.Done)
	}
	for _, ln := range lines[1:] {
		var cell struct {
			Digest string       `json:"digest"`
			Result sweep.Result `json:"result"`
			Sum    string       `json:"sum"`
		}
		if err := json.Unmarshal([]byte(ln), &cell); err != nil {
			t.Fatalf("bad streamed cell line %q: %v", ln, err)
		}
		if cell.Digest == "" || cell.Sum == "" {
			t.Fatalf("streamed cell line missing integrity fields: %q", ln)
		}
	}

	// A resubmit after drain is refused before it reaches the pool.
	if w := post(s, "/v1/sweeps", jobSpec, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: code %d, want 503", w.Code)
	}
}

// waitFor polls cond until it holds or the deadline passes; it bridges
// the tiny windows where a metric update trails the observable HTTP
// effect (e.g. the queue-depth gauge is bumped just after the waiter
// blocks).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueDepth reports the current number of waiters across all tenants
// (tests assert it returns to zero after a drain).
func (l *limiter) queueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, t := range l.tenants {
		n += t.queued
	}
	return n
}
