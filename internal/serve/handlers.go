package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/surface"
	"repro/internal/sweep"
)

// maxBodyBytes bounds every request body; a spec or sample upload past
// this is hostile or a bug either way.
const maxBodyBytes = 8 << 20

// retryAfterSeconds is the Retry-After hint on 429 responses: the queue
// is full of requests that each take well under a second, so "try again
// in one" is honest.
const retryAfterSeconds = "1"

// Point is a plane position in request/response bodies.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// SamplePoint is one uploaded field sample: a plane position and the
// value measured there — the request shape for callers that bring their
// own sensed data instead of naming a synthetic field spec.
type SamplePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// PlaceRequest asks for a k-node placement. Exactly one of Field,
// Dynfield and Samples names the environment; the remaining knobs
// default to the cmd/osd CLI's defaults so the same logical request
// yields the same bytes either way.
type PlaceRequest struct {
	// Field selects a synthetic environment generator (the sweep
	// FieldSpec vocabulary: forest, peaks, terrain, ridge).
	Field *sweep.FieldSpec `json:"field,omitempty"`
	// Dynfield selects a generated time-varying environment (the sweep
	// DynFieldSpec vocabulary: plume), sliced at time T.
	Dynfield *sweep.DynFieldSpec `json:"dynfield,omitempty"`
	// T is the slice time in minutes for Dynfield environments; plain
	// fields and samples ignore it.
	T float64 `json:"t,omitempty"`
	// Samples is the inline alternative: uploaded field samples,
	// reconstructed into a reference surface by Delaunay interpolation.
	Samples []SamplePoint `json:"samples,omitempty"`
	// K is the node budget (required).
	K int `json:"k"`
	// Rc is the communication radius; 0 defaults to 10.
	Rc float64 `json:"rc,omitempty"`
	// GridN and DeltaN are the working and δ-integration lattice
	// resolutions; 0 defaults to 100 each.
	GridN  int `json:"grid_n,omitempty"`
	DeltaN int `json:"delta_n,omitempty"`
	// Seed drives stochastic strategies; 0 defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// Strategy names the placement in the registry; "" defaults to "fra".
	Strategy string `json:"strategy,omitempty"`
}

// PlaceResponse is one placement result. Every field is a deterministic
// function of the request, which is what makes responses cacheable and
// byte-comparable against the CLI.
type PlaceResponse struct {
	Strategy   string  `json:"strategy"`
	K          int     `json:"k"`
	Rc         float64 `json:"rc"`
	Delta      float64 `json:"delta"`
	Refined    int     `json:"refined"`
	Relays     int     `json:"relays"`
	Connected  bool    `json:"connected"`
	Components int     `json:"components"`
	MeanDegree float64 `json:"mean_degree"`
	Nodes      []Point `json:"nodes"`
	Anchors    []Point `json:"anchors"`
	// Summary is the one-line report, byte-identical to cmd/osd's output
	// for the same inputs (and the whole body of ?format=text).
	Summary string `json:"summary"`
}

// EvalRequest scores a caller-supplied deployment: δ of the Delaunay
// reconstruction from the given node positions against the named field.
type EvalRequest struct {
	Field    *sweep.FieldSpec    `json:"field,omitempty"`
	Dynfield *sweep.DynFieldSpec `json:"dynfield,omitempty"`
	T        float64             `json:"t,omitempty"`
	Samples  []SamplePoint       `json:"samples,omitempty"`
	// Nodes are the deployed positions to evaluate (required).
	Nodes []Point `json:"nodes"`
	// Anchors are the reconstruction anchors; empty defaults to the
	// region corners, the fairness convention every strategy uses.
	Anchors []Point `json:"anchors,omitempty"`
	// Rc is the connectivity radius; 0 defaults to 10.
	Rc float64 `json:"rc,omitempty"`
	// DeltaN is the δ lattice resolution; 0 defaults to 100.
	DeltaN int `json:"delta_n,omitempty"`
}

// EvalResponse is one δ evaluation.
type EvalResponse struct {
	K          int     `json:"k"`
	Rc         float64 `json:"rc"`
	Delta      float64 `json:"delta"`
	Connected  bool    `json:"connected"`
	Components int     `json:"components"`
	MeanDegree float64 `json:"mean_degree"`
}

// PlacementSummary is the one-line placement report shared by cmd/osd
// and the /v1/place text response; ci/serve_smoke.sh compares the two
// byte for byte, so the service provably computes what the CLI computes.
func PlacementSummary(strategy string, k int, p core.Placement, ev core.Evaluation) string {
	return fmt.Sprintf("%s k=%d: δ=%.1f refined=%d relays=%d connected=%v components=%d mean_degree=%.2f",
		strings.ToUpper(strategy), k, ev.Delta, p.Refined, p.Relays, ev.Connected, ev.Components, ev.MeanDegree)
}

// httpError writes a plain-text error response.
func httpError(w http.ResponseWriter, code int, format string, v ...any) {
	http.Error(w, fmt.Sprintf(format, v...), code)
}

// decodeStrict parses a bounded JSON request body, rejecting unknown
// fields and trailing garbage — a typo'd knob fails loudly with a 400
// instead of silently computing the wrong thing.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if dec.More() {
		httpError(w, http.StatusBadRequest, "bad request body: trailing data after JSON object")
		return false
	}
	return true
}

// encodeJSON renders v as every JSON response body is rendered.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "marshal response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// tenantKey identifies the caller for admission control: the X-API-Key
// header, with keyless callers pooled into one shared tenant.
func tenantKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

// env is a request's environment: exactly one of a field spec, a
// dynfield sliced at time t, and inline samples.
type env struct {
	spec    *sweep.FieldSpec
	dyn     *sweep.DynFieldSpec
	t       float64
	samples []SamplePoint
}

// check validates the environment without building it: exactly one of
// field, dynfield and samples, a valid spec, a dynfield's slice time, and
// finite samples, at least 3. It runs before the response-cache lookup:
// hash writes a field spec alone, so a body that also carries samples
// must be refused before it can match a field-only entry.
func (e env) check() error {
	set := 0
	for _, present := range []bool{e.spec != nil, e.dyn != nil, len(e.samples) > 0} {
		if present {
			set++
		}
	}
	switch {
	case set > 1:
		return fmt.Errorf("field, dynfield and samples are mutually exclusive")
	case set == 0:
		return fmt.Errorf("one of field, dynfield or samples is required")
	case e.spec != nil:
		return e.spec.Validate()
	case e.dyn != nil && (!finite(e.t) || e.t < 0):
		return fmt.Errorf("t=%g out of range for dynfield", e.t)
	case e.dyn != nil:
		return e.dyn.Validate()
	case len(e.samples) < 3:
		return fmt.Errorf("need at least 3 samples to triangulate, got %d", len(e.samples))
	}
	for i, sp := range e.samples {
		if !finite(sp.X) || !finite(sp.Y) || !finite(sp.Z) {
			return fmt.Errorf("sample %d is not finite", i)
		}
	}
	return nil
}

// hash folds the environment's identity into h: the field or dynfield
// spec tuple that sweep.Spec.Digest writes too (the dynfield's followed
// by the slice time) or the exact bits of every inline sample.
func (e env) hash(h io.Writer) {
	if e.spec != nil {
		e.spec.WriteDigest(h)
		return
	}
	if e.dyn != nil {
		e.dyn.WriteDigest(h)
		fmt.Fprintf(h, "t=%g;", e.t)
		return
	}
	fmt.Fprintf(h, "samples=%d;", len(e.samples))
	b := make([]byte, 0, 24*len(e.samples))
	for _, sp := range e.samples {
		b = appendBits(b, sp.X, sp.Y, sp.Z)
	}
	h.Write(b)
}

// appendBits appends the bits of each value to b as a fixed-width
// little-endian record. After a count prefix, a run of them encodes a list
// unambiguously, and far faster than formatting.
func appendBits(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// pointBits is appendBits of every point's X and Y.
func pointBits(ps []Point) []byte {
	b := make([]byte, 0, 16*len(ps))
	for _, p := range ps {
		b = appendBits(b, p.X, p.Y)
	}
	return b
}

// build constructs the reference surface of an environment check passed.
// A field spec, or a dynfield sliced at time t, comes from refs; done,
// called once the request has computed, re-costs its filled lattices
// there. Inline samples are triangulated over their bounding box, the
// same reconstruction the evaluation stack uses everywhere else, and are
// not cached.
func (e env) build(refs *fifo[*surface.Reference]) (f field.Field, done func(), err error) {
	if len(e.samples) > 0 {
		tin, err := triangulate(e.samples)
		return tin, func() {}, err
	}
	h := fnv.New64a()
	e.hash(h)
	key := string(h.Sum(nil))
	ref, ok := refs.get(key)
	if !ok {
		var d field.DynField
		t := 0.0 // a plain field ignores t
		if e.spec != nil {
			d, err = e.spec.Build()
		} else {
			d, err = e.dyn.Build()
			t = e.t
		}
		if err != nil {
			return nil, nil, err
		}
		// A concurrent miss may have added its copy first; add returns
		// that one, so both requests share its fills.
		ref = refs.add(key, surface.NewReference(field.Slice(d, t)), 0)
	}
	return ref, func() { refs.resize(key, ref, ref.Bytes()) }, nil
}

// triangulate reconstructs inline samples over their bounding box.
func triangulate(samples []SamplePoint) (*surface.TIN, error) {
	pts := make([]geom.Vec2, len(samples))
	fs := make([]field.Sample, len(samples))
	for i, sp := range samples {
		pts[i] = geom.Vec2{X: sp.X, Y: sp.Y}
		fs[i] = field.Sample{Pos: pts[i], Z: sp.Z}
	}
	region, ok := geom.BoundingBox(pts)
	if !ok || region.Area() <= 0 {
		return nil, fmt.Errorf("samples span no area")
	}
	tin, err := surface.FromSamples(region, fs)
	if err != nil {
		return nil, fmt.Errorf("triangulate samples: %w", err)
	}
	return tin, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// computeRequest is the per-route part of serveCompute: a /v1/place or
// /v1/eval body.
type computeRequest interface {
	// normalize fills the CLI-parity defaults in place.
	normalize()
	// validate checks every knob but the environment.
	validate() error
	env() env
	// digest is the response-cache key: every result-affecting input,
	// nothing else.
	digest() string
	// compute answers the request on the environment's field f. Its
	// errors are the computation's, not the request's.
	compute(f field.Field, reg *obs.Registry) (resp any, text string, err error)
}

func (pr *PlaceRequest) normalize() {
	if pr.Rc == 0 {
		pr.Rc = 10
	}
	if pr.GridN == 0 {
		pr.GridN = 100
	}
	if pr.DeltaN == 0 {
		pr.DeltaN = 100
	}
	if pr.Seed == 0 {
		pr.Seed = 1
	}
	if pr.Strategy == "" {
		pr.Strategy = "fra"
	}
}

func (pr *PlaceRequest) validate() error {
	if pr.K < 1 {
		return fmt.Errorf("k=%d < 1", pr.K)
	}
	if pr.Rc <= 0 || pr.GridN < 1 || pr.DeltaN < 1 {
		return fmt.Errorf("rc=%g grid_n=%d delta_n=%d out of range", pr.Rc, pr.GridN, pr.DeltaN)
	}
	if !strategy.HasPlacement(pr.Strategy) {
		return fmt.Errorf("unknown strategy %q (registered: %s)",
			pr.Strategy, strings.Join(strategy.PlacementNames(), ", "))
	}
	return sweep.CheckWork(pr.K, pr.GridN, pr.DeltaN, 0)
}

func (pr *PlaceRequest) env() env { return env{pr.Field, pr.Dynfield, pr.T, pr.Samples} }

func (pr *PlaceRequest) digest() string {
	h := fnv.New64a()
	io.WriteString(h, "place;")
	pr.env().hash(h)
	fmt.Fprintf(h, "k=%d;rc=%g;grid=%d;delta=%d;seed=%d;strategy=%s",
		pr.K, pr.Rc, pr.GridN, pr.DeltaN, pr.Seed, pr.Strategy)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (pr *PlaceRequest) compute(f field.Field, reg *obs.Registry) (any, string, error) {
	placer, _ := strategy.LookupPlacement(pr.Strategy) // validate checked the name
	p, err := placer.Place(f, strategy.PlaceOptions{
		K: pr.K, Rc: pr.Rc, GridN: pr.GridN, Seed: pr.Seed, Metrics: reg,
	})
	if err != nil {
		return nil, "", fmt.Errorf("%s: %v", pr.Strategy, err)
	}
	ev, err := core.Evaluate(f, p, pr.Rc, pr.DeltaN)
	if err != nil {
		return nil, "", fmt.Errorf("evaluate: %v", err)
	}
	resp := PlaceResponse{
		Strategy: pr.Strategy, K: pr.K, Rc: pr.Rc,
		Delta: ev.Delta, Refined: p.Refined, Relays: p.Relays,
		Connected: ev.Connected, Components: ev.Components, MeanDegree: ev.MeanDegree,
		Nodes:   toPoints(p.Nodes),
		Anchors: toPoints(p.Anchors),
		Summary: PlacementSummary(pr.Strategy, pr.K, p, ev),
	}
	return resp, resp.Summary + "\n", nil
}

func (er *EvalRequest) normalize() {
	if er.Rc == 0 {
		er.Rc = 10
	}
	if er.DeltaN == 0 {
		er.DeltaN = 100
	}
}

func (er *EvalRequest) validate() error {
	if len(er.Nodes) == 0 {
		return fmt.Errorf("nodes are required")
	}
	for i, n := range er.Nodes {
		if !finite(n.X) || !finite(n.Y) {
			return fmt.Errorf("node %d is not finite", i)
		}
	}
	for i, a := range er.Anchors {
		if !finite(a.X) || !finite(a.Y) {
			return fmt.Errorf("anchor %d is not finite", i)
		}
	}
	if er.Rc <= 0 || er.DeltaN < 1 {
		return fmt.Errorf("rc=%g delta_n=%d out of range", er.Rc, er.DeltaN)
	}
	return sweep.CheckWork(len(er.Nodes), er.DeltaN, er.DeltaN, 0)
}

func (er *EvalRequest) env() env { return env{er.Field, er.Dynfield, er.T, er.Samples} }

func (er *EvalRequest) digest() string {
	h := fnv.New64a()
	io.WriteString(h, "eval;")
	er.env().hash(h)
	fmt.Fprintf(h, "rc=%g;delta=%d;nodes=%d;", er.Rc, er.DeltaN, len(er.Nodes))
	h.Write(pointBits(er.Nodes))
	fmt.Fprintf(h, "anchors=%d;", len(er.Anchors))
	h.Write(pointBits(er.Anchors))
	return fmt.Sprintf("%016x", h.Sum64())
}

func (er *EvalRequest) compute(f field.Field, _ *obs.Registry) (any, string, error) {
	p := core.Placement{Nodes: toVecs(er.Nodes), Anchors: toVecs(er.Anchors)}
	if len(p.Anchors) == 0 {
		corners := f.Bounds().Corners()
		p.Anchors = append([]geom.Vec2(nil), corners[:]...)
	}
	ev, err := core.Evaluate(f, p, er.Rc, er.DeltaN)
	if err != nil {
		return nil, "", fmt.Errorf("evaluate: %v", err)
	}
	resp := EvalResponse{
		K: len(er.Nodes), Rc: er.Rc,
		Delta: ev.Delta, Connected: ev.Connected,
		Components: ev.Components, MeanDegree: ev.MeanDegree,
	}
	return resp, fmt.Sprintf("k=%d: δ=%.1f connected=%v\n", resp.K, resp.Delta, resp.Connected), nil
}

// rendered holds both renderings of one response, so that a text-format
// cache hit never re-marshals.
type rendered struct {
	json []byte
	text string
}

// serveRendered writes a cached or just-computed response in the
// requested rendering.
func serveRendered(w http.ResponseWriter, r *http.Request, e *rendered) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, e.text)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.json)
}

// serveCompute runs the /v1/place and /v1/eval pipeline on req: decode;
// normalize and validate; check the environment; look up the response
// cache; take the tenant's admission slot; build the environment;
// compute; store; respond. A cache hit bypasses admission, while every
// costly step, inline triangulation included, runs inside it. name
// prefixes the 400 diagnostics.
func (s *Server) serveCompute(w http.ResponseWriter, r *http.Request, name string, req computeRequest) {
	if !decodeStrict(w, r, req) {
		return
	}
	req.normalize()
	e := req.env()
	err := req.validate()
	if err == nil {
		err = e.check()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad %s request: %v", name, err)
		return
	}
	key := req.digest()
	if hit, ok := s.cache.get(key); ok {
		serveRendered(w, r, hit)
		return
	}
	release, ok := s.lim.acquire(tenantKey(r))
	if !ok {
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, "tenant queue full; retry later")
		return
	}
	defer release()
	f, done, err := e.build(s.refs)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad %s request: %v", name, err)
		return
	}
	defer done()
	resp, text, err := req.compute(f, s.cfg.Metrics)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	b, err := encodeJSON(resp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "marshal response: %v", err)
		return
	}
	out := &rendered{json: b, text: text}
	s.cache.add(key, out, 1)
	serveRendered(w, r, out)
}

func toPoints(vs []geom.Vec2) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Point{X: v.X, Y: v.Y}
	}
	return out
}

func toVecs(ps []Point) []geom.Vec2 {
	if len(ps) == 0 {
		return nil
	}
	out := make([]geom.Vec2, len(ps))
	for i, p := range ps {
		out[i] = geom.Vec2{X: p.X, Y: p.Y}
	}
	return out
}
