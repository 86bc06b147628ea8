package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/sweep"
)

// newTestServer builds a Server with a live registry and sane test
// limits; override via mutate.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{Metrics: reg, SweepWorkers: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), reg
}

// post drives one request through the full handler stack in-process.
func post(s *Server, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

const placeBody = `{"field":{"kind":"forest"},"k":20,"rc":10,"grid_n":40,"delta_n":40,"seed":1,"strategy":"fra"}`

// TestPlaceGoldenVsDirect proves the handler computes exactly what the
// CLI path computes: the served response must match a direct
// strategy-registry placement plus core.Evaluate, field for field, and
// the text rendering must be the osd summary line byte for byte.
func TestPlaceGoldenVsDirect(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := post(s, "/v1/place", placeBody, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("place: code %d body %s", w.Code, w.Body.String())
	}
	var resp PlaceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	ref := field.Slice(field.NewForest(field.DefaultForestConfig()), 0)
	placer, err := strategy.LookupPlacement("fra")
	if err != nil {
		t.Fatal(err)
	}
	p, err := placer.Place(ref, strategy.PlaceOptions{K: 20, Rc: 10, GridN: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.Evaluate(ref, p, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := PlacementSummary("fra", 20, p, ev)
	if resp.Summary != want {
		t.Fatalf("summary mismatch:\n got %q\nwant %q", resp.Summary, want)
	}
	if resp.Delta != ev.Delta || resp.Relays != p.Relays || resp.Connected != ev.Connected {
		t.Fatalf("response fields diverge from direct compute: %+v vs ev=%+v p.Relays=%d", resp, ev, p.Relays)
	}
	if len(resp.Nodes) != len(p.Nodes) {
		t.Fatalf("node count %d, want %d", len(resp.Nodes), len(p.Nodes))
	}
	for i := range p.Nodes {
		if resp.Nodes[i].X != p.Nodes[i].X || resp.Nodes[i].Y != p.Nodes[i].Y {
			t.Fatalf("node %d diverges: %+v vs %+v", i, resp.Nodes[i], p.Nodes[i])
		}
	}

	// The text rendering is the CLI line plus newline, nothing else.
	wt := post(s, "/v1/place?format=text", placeBody, nil)
	if wt.Code != http.StatusOK {
		t.Fatalf("text place: code %d", wt.Code)
	}
	if got := wt.Body.String(); got != want+"\n" {
		t.Fatalf("text body %q, want %q", got, want+"\n")
	}
}

// TestPlaceCacheHitIsByteIdentical exercises the content-addressed
// cache: a repeated request is served from cache (hit counter moves)
// with byte-identical body; a different seed misses.
func TestPlaceCacheHitIsByteIdentical(t *testing.T) {
	s, reg := newTestServer(t, nil)
	first := post(s, "/v1/place", placeBody, nil)
	second := post(s, "/v1/place", placeBody, nil)
	if first.Code != 200 || second.Code != 200 {
		t.Fatalf("codes %d %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit not byte-identical to computed response")
	}
	snap := reg.Snapshot()
	if hits := snap.Counters["serve_cache_hits_total"]; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	other := strings.Replace(placeBody, `"seed":1`, `"seed":2`, 1)
	post(s, "/v1/place", other, nil)
	snap = reg.Snapshot()
	if hits := snap.Counters["serve_cache_hits_total"]; hits != 1 {
		t.Fatalf("different seed hit the cache: hits = %d", hits)
	}
	if misses := snap.Counters["serve_cache_misses_total"]; misses != 2 {
		t.Fatalf("cache misses = %d, want 2", misses)
	}
}

// TestPlaceFromSamples uploads inline samples instead of a field spec.
func TestPlaceFromSamples(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ref := field.Peaks(geom.Square(100))
	var sb strings.Builder
	sb.WriteString(`{"samples":[`)
	n := 0
	for i := 0; i <= 6; i++ {
		for j := 0; j <= 6; j++ {
			if n > 0 {
				sb.WriteByte(',')
			}
			x, y := float64(i)*100/6, float64(j)*100/6
			fmt.Fprintf(&sb, `{"x":%g,"y":%g,"z":%g}`, x, y, ref.Eval(geom.Vec2{X: x, Y: y}))
			n++
		}
	}
	sb.WriteString(`],"k":6,"rc":40,"grid_n":20,"delta_n":20}`)
	w := post(s, "/v1/place", sb.String(), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("samples place: code %d body %s", w.Code, w.Body.String())
	}
	var resp PlaceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 6 || !finite(resp.Delta) {
		t.Fatalf("bad samples placement: %+v", resp)
	}
}

// TestEvalHandler scores a caller-supplied deployment and must agree
// with a direct core.Evaluate of the same placement.
func TestEvalHandler(t *testing.T) {
	s, _ := newTestServer(t, nil)
	body := `{"field":{"kind":"peaks"},"nodes":[{"x":20,"y":20},{"x":50,"y":70},{"x":80,"y":30},{"x":60,"y":55}],"rc":60,"delta_n":30}`
	w := post(s, "/v1/eval", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("eval: code %d body %s", w.Code, w.Body.String())
	}
	var resp EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	ref := field.Peaks(geom.Square(100))
	p := core.Placement{Nodes: toVecs([]Point{{20, 20}, {50, 70}, {80, 30}, {60, 55}})}
	corners := ref.Bounds().Corners()
	p.Anchors = corners[:]
	ev, err := core.Evaluate(ref, p, 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Delta != ev.Delta || resp.Connected != ev.Connected || resp.Components != ev.Components {
		t.Fatalf("served eval %+v diverges from direct %+v", resp, ev)
	}
}

// TestRequestValidation is the strict-validation table: unknown fields,
// malformed combinations and out-of-range knobs must 400 with a
// diagnostic, never compute.
func TestRequestValidation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	cases := []struct {
		name, path, body string
	}{
		{"unknown field", "/v1/place", `{"field":{"kind":"forest"},"k":5,"bogus":1}`},
		{"unknown field spec knob", "/v1/place", `{"field":{"kind":"forest","typo":2},"k":5}`},
		{"no environment", "/v1/place", `{"k":5}`},
		{"both environments", "/v1/place", `{"field":{"kind":"peaks"},"samples":[{"x":0,"y":0,"z":0},{"x":1,"y":0,"z":0},{"x":0,"y":1,"z":0}],"k":5}`},
		{"k missing", "/v1/place", `{"field":{"kind":"peaks"}}`},
		{"bad strategy", "/v1/place", `{"field":{"kind":"peaks"},"k":5,"strategy":"nope"}`},
		{"bad field kind", "/v1/place", `{"field":{"kind":"volcano"},"k":5}`},
		{"too few samples", "/v1/place", `{"samples":[{"x":0,"y":0,"z":0}],"k":5}`},
		{"non-finite sample", "/v1/place", `{"samples":[{"x":0,"y":0,"z":1e999},{"x":1,"y":0,"z":0},{"x":0,"y":1,"z":0}],"k":5}`},
		{"trailing garbage", "/v1/place", `{"field":{"kind":"peaks"},"k":5} {"again":true}`},
		{"eval without nodes", "/v1/eval", `{"field":{"kind":"peaks"}}`},
		{"eval bad rc", "/v1/eval", `{"field":{"kind":"peaks"},"nodes":[{"x":1,"y":1}],"rc":-4}`},
		{"sweep unknown knob", "/v1/sweeps", `{"name":"x","fields":[{"kind":"peaks"}],"ks":[4],"rcs":[30],"typo":1}`},
		{"sweep empty grid", "/v1/sweeps", `{"name":"x","fields":[],"ks":[],"rcs":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(s, tc.path, tc.body, nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("code %d (body %s), want 400", w.Code, w.Body.String())
			}
		})
	}

	// Oversized work is refused up front, before any lattice is built.
	for _, tc := range []struct{ path, body string }{
		{"/v1/place", `{"field":{"kind":"forest"},"k":5,"grid_n":30000,"delta_n":30000}`},
		{"/v1/eval", `{"field":{"kind":"peaks"},"nodes":[{"x":1,"y":1}],"delta_n":30000}`},
		{"/v1/sweeps", `{"name":"x","fields":[{"kind":"peaks"}],"ks":[4],"rcs":[30],"grid_n":30000,"delta_n":30000}`},
		{"/v1/place", `{"field":{"kind":"forest","gaps":20000},"k":5}`},
		{"/v1/eval", `{"dynfield":{"kind":"plume","sources":20000},"t":1,"nodes":[{"x":1,"y":1}]}`},
		{"/v1/sweeps", `{"name":"x","fields":[{"kind":"forest","gaps":20000}],"ks":[4],"rcs":[30]}`},
	} {
		start := time.Now()
		w := post(s, tc.path, tc.body, nil)
		if d := time.Since(start); d > 10*time.Millisecond {
			t.Errorf("%s: oversized request answered after %v, want under 10ms", tc.path, d)
		}
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "work budget") {
			t.Errorf("%s: oversized request got %d %s, want a 400 naming the work budget", tc.path, w.Code, w.Body.String())
		}
	}

	if w := get(s, "/v1/place"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route: code %d, want 405", w.Code)
	}
	if w := get(s, "/v1/sweeps/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job: code %d, want 404", w.Code)
	}
}

const jobSpec = `{"name":"serve-test","fields":[{"kind":"peaks"}],"ks":[4,6],"rcs":[30],"grid_n":16,"delta_n":16,"random_draws":1}`

// TestSweepJobLifecycle runs a sweep through the async API: submit →
// poll → results (checkpoint JSONL, integrity-verified) → report
// (byte-identical to the batch engine's JSON aggregate).
func TestSweepJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, func(c *Config) { c.JobDir = dir })
	w := post(s, "/v1/sweeps", jobSpec, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body.String())
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 2 || st.ID == "" {
		t.Fatalf("bad submit status %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != jobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		if st.State == jobFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(20 * time.Millisecond)
		wp := get(s, "/v1/sweeps/"+st.ID)
		if wp.Code != http.StatusOK {
			t.Fatalf("poll: code %d", wp.Code)
		}
		if err := json.Unmarshal(wp.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.Done != 2 || st.Failed != 0 {
		t.Fatalf("final status %+v", st)
	}

	// The results stream is a well-formed checkpoint: write it to disk
	// and read it back through the batch resume reader.
	spec, err := sweep.LoadSpec(strings.NewReader(jobSpec))
	if err != nil {
		t.Fatal(err)
	}
	wr := get(s, "/v1/sweeps/"+st.ID+"/results")
	if wr.Code != http.StatusOK {
		t.Fatalf("results: code %d", wr.Code)
	}
	path := filepath.Join(dir, "streamed.ckpt")
	if err := os.WriteFile(path, wr.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	prior, header, err := sweep.ReadCheckpoint(path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if header != spec.SpecDigest() {
		t.Fatalf("stream header %q, want spec digest %q", header, spec.SpecDigest())
	}
	if len(prior) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(prior))
	}

	// The report is byte-identical to the batch engine's aggregate.
	rep, err := sweep.Run(spec, sweep.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteJSON(&want, rep); err != nil {
		t.Fatal(err)
	}
	wrep := get(s, "/v1/sweeps/"+st.ID+"/report")
	if wrep.Code != http.StatusOK {
		t.Fatalf("report: code %d", wrep.Code)
	}
	if !bytes.Equal(wrep.Body.Bytes(), want.Bytes()) {
		t.Fatalf("served report differs from batch aggregate:\n%s\nvs\n%s", wrep.Body.String(), want.String())
	}
	for digest, r := range prior {
		if r.Digest != digest {
			t.Fatalf("stream line digest mismatch: %s vs %s", digest, r.Digest)
		}
	}

	// The on-disk job checkpoint exists and parses too.
	ckpt, _, err := sweep.ReadCheckpoint(filepath.Join(dir, st.ID+".ckpt"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt) != 2 {
		t.Fatalf("job checkpoint has %d cells, want 2", len(ckpt))
	}
}

// TestSweepReportBeforeDone asserts the report endpoint refuses until
// the job lands.
func TestSweepReportBeforeDone(t *testing.T) {
	s, _ := newTestServer(t, nil)
	big := `{"name":"slow","fields":[{"kind":"forest"}],"ks":[10,20,30],"rcs":[10,15],"grid_n":64,"delta_n":64,"random_draws":2}`
	w := post(s, "/v1/sweeps", big, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d", w.Code)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if wr := get(s, "/v1/sweeps/"+st.ID+"/report"); wr.Code != http.StatusConflict {
		t.Fatalf("early report: code %d, want 409", wr.Code)
	}
	s.Drain() // don't leak the job past the test
}

// TestMetricsExport hits a route and checks the Prometheus exposition
// carries the serve series with route/code labels.
func TestMetricsExport(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if w := post(s, "/v1/place", placeBody, nil); w.Code != 200 {
		t.Fatalf("place: %d", w.Code)
	}
	if w := get(s, "/healthz"); w.Code != 200 || w.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
	w := get(s, "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	out := w.Body.String()
	for _, want := range []string{
		`serve_requests_total{route="/v1/place",code="200"} 1`,
		`serve_requests_total{route="/healthz",code="200"} 1`,
		"serve_request_seconds_count",
		"serve_queue_depth",
		"serve_cache_misses_total",
		"serve_reference_misses_total 1",
		fmt.Sprintf("serve_reference_bytes %d", forestRefBytes(t, 20)),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestHandlerPanicReleasesDrainBarrier mounts a panicking route through
// the shared middleware: the client must get a 500 that the route/status
// counter records, the panic value must reach the log, and the drain
// barrier's read lock must be released so Drain still returns.
func TestHandlerPanicReleasesDrainBarrier(t *testing.T) {
	var log bytes.Buffer
	s, reg := newTestServer(t, func(c *Config) { c.Log = &log })
	s.handle("GET", "/test/panic", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	if w := get(s, "/test/panic"); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", w.Code)
	}
	if n := reg.Counter(`serve_requests_total{route="/test/panic",code="500"}`).Value(); n != 1 {
		t.Fatalf("500 counter = %d, want 1", n)
	}
	if !strings.Contains(log.String(), "boom") {
		t.Fatalf("panic value missing from log: %q", log.String())
	}
	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain blocked after a handler panic: drain barrier leaked")
	}
}

// waitJob polls a sweep job, status and results stream both, until it
// leaves queued/running.
func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	var st JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for st.State == "" || st.State == jobQueued || st.State == jobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if w := get(s, "/v1/sweeps/"+id+"/results"); w.Code != http.StatusOK {
			t.Fatalf("results while %s: code %d", st.State, w.Code)
		}
		if err := json.Unmarshal(get(s, "/v1/sweeps/"+id).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSweepResultsMatchCheckpointFile: with four workers racing to
// record cells, a finished job's results stream is byte-identical to
// the checkpoint file its run wrote.
func TestSweepResultsMatchCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, func(c *Config) {
		c.JobDir = dir
		c.SweepWorkers = 4
	})
	spec := `{"name":"stream","fields":[{"kind":"peaks"},{"kind":"ridge"}],"ks":[4,6,8,10],"rcs":[30,40],"grid_n":12,"delta_n":12}`
	w := post(s, "/v1/sweeps", spec, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body.String())
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st = waitJob(t, s, st.ID); st.State != jobDone || st.Done != 16 {
		t.Fatalf("final status %+v", st)
	}
	file, err := os.ReadFile(filepath.Join(dir, st.ID+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if body := get(s, "/v1/sweeps/"+st.ID+"/results").Body.Bytes(); !bytes.Equal(body, file) {
		t.Fatalf("results stream differs from the checkpoint file:\n%s\nvs\n%s", body, file)
	}
}

// TestSweepTraceDevZero: a spec naming /dev/zero as its trace file is
// accepted promptly — the digest does not read the device — and the
// cell fails with the refusal as its error instead of wedging the job.
func TestSweepTraceDevZero(t *testing.T) {
	if _, err := os.Stat("/dev/zero"); err != nil {
		t.Skip("no /dev/zero on this system")
	}
	s, _ := newTestServer(t, nil)
	spec := `{"name":"zero","traces":[{"path":"/dev/zero"}],"ks":[4],"rcs":[30],"grid_n":12,"delta_n":12}`
	submitted := make(chan *httptest.ResponseRecorder, 1)
	go func() { submitted <- post(s, "/v1/sweeps", spec, nil) }()
	var w *httptest.ResponseRecorder
	select {
	case w = <-submitted:
	case <-time.After(5 * time.Second):
		t.Fatal("submit naming /dev/zero did not answer within 5s")
	}
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body.String())
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st = waitJob(t, s, st.ID); st.State != jobDone || st.Done != 1 || st.Failed != 1 {
		t.Fatalf("final status %+v, want done with 1 failed cell", st)
	}
	var rep sweep.Report
	if err := json.Unmarshal(get(s, "/v1/sweeps/"+st.ID+"/report").Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || !strings.Contains(rep.Cells[0].Err, "not a regular file") {
		t.Fatalf("cell error %+v, want the trace refusal", rep.Cells)
	}
}

// TestPlaceDigestPinned pins the /v1/place cache key of one field request
// and one dynfield request to fixed hex, so the environment tuple the
// service shares with the sweep's cell digest cannot drift unnoticed.
func TestPlaceDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  PlaceRequest
		want string
	}{
		{"field", PlaceRequest{Field: &sweep.FieldSpec{Kind: "forest", Seed: 7, Size: 120, Gaps: 3}, K: 20, Rc: 12, GridN: 60, DeltaN: 50, Seed: 4, Strategy: "lloyd"}, "57264af4948688b8"},
		{"dynfield", PlaceRequest{Dynfield: &sweep.DynFieldSpec{Kind: "plume", Seed: 2, Size: 90, Sources: 3, Wind: 0.5, Diffusion: 1.1, Decay: 0.05, SplitAt: 4}, T: 2.5, K: 20, Rc: 12, GridN: 60, DeltaN: 50, Seed: 4, Strategy: "fra"}, "6f34a5315e0da81e"},
	} {
		if got := tc.req.digest(); got != tc.want {
			t.Errorf("%s request: digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestInlineDigestSeesEveryBit: requests whose inline samples, evaluated
// nodes or anchors differ in the lowest bit of one coordinate get
// different cache keys.
func TestInlineDigestSeesEveryBit(t *testing.T) {
	flip := func(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }
	place := func(z float64) computeRequest {
		return &PlaceRequest{Samples: []SamplePoint{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: z}}, K: 20, Rc: 12, GridN: 60, DeltaN: 50, Strategy: "fra"}
	}
	eval := func(x, y float64) computeRequest {
		return &EvalRequest{Samples: []SamplePoint{{X: 1, Y: 2, Z: 3}}, Nodes: []Point{{X: x, Y: 1}}, Anchors: []Point{{X: 2, Y: y}}, Rc: 10, DeltaN: 20}
	}
	for _, tc := range []struct {
		name string
		a, b computeRequest
	}{
		{"place sample", place(6), place(flip(6))},
		{"eval node", eval(7, 8), eval(flip(7), 8)},
		{"eval anchor", eval(7, 8), eval(7, flip(8))},
	} {
		if a, b := tc.a.digest(), tc.b.digest(); a == b {
			t.Errorf("%s: one bit apart, same digest %s", tc.name, a)
		}
	}
}
