package serve

import (
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

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// tenantKey identifies the caller for admission control: the X-API-Key
// header, with keyless callers pooled into one shared tenant.
func tenantKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

// checkEnv validates a request's environment without building it: exactly
// one of field, dynfield and samples, a dynfield's slice time, and finite
// samples, at least 3. These checks come before the response-cache lookup:
// hashField hashes a field spec alone, so a body that also carries
// samples must be refused before it can match a field-only entry.
func checkEnv(spec *sweep.FieldSpec, dyn *sweep.DynFieldSpec, t float64, samples []SamplePoint) error {
	set := 0
	for _, present := range []bool{spec != nil, dyn != nil, len(samples) > 0} {
		if present {
			set++
		}
	}
	switch {
	case set > 1:
		return fmt.Errorf("field, dynfield and samples are mutually exclusive")
	case set == 0:
		return fmt.Errorf("one of field, dynfield or samples is required")
	case dyn != nil && (!finite(t) || t < 0):
		return fmt.Errorf("t=%g out of range for dynfield", t)
	case spec != nil || dyn != nil:
		return nil
	case len(samples) < 3:
		return fmt.Errorf("need at least 3 samples to triangulate, got %d", len(samples))
	}
	for i, sp := range samples {
		if !finite(sp.X) || !finite(sp.Y) || !finite(sp.Z) {
			return fmt.Errorf("sample %d is not finite", i)
		}
	}
	return nil
}

// resolveField builds the reference surface of a request checkEnv passed.
// A field spec, or a dynfield sliced at time t, comes from the server's
// reference cache; done, called once the request has computed, retains
// its filled lattices there. Inline samples are triangulated over their
// bounding box, the same reconstruction the evaluation stack uses
// everywhere else, and are not cached.
func (s *Server) resolveField(spec *sweep.FieldSpec, dyn *sweep.DynFieldSpec, t float64, samples []SamplePoint) (f field.Field, done func(), err error) {
	if len(samples) > 0 {
		tin, err := triangulate(samples)
		return tin, func() {}, err
	}
	h := fnv.New64a()
	hashField(h, spec, dyn, t, nil)
	key := string(h.Sum(nil))
	ref, err := s.refs.get(key, func() (field.Field, error) {
		if spec != nil {
			d, err := spec.Build()
			if err != nil {
				return nil, err
			}
			return field.Slice(d, 0), nil
		}
		d, err := dyn.Build()
		if err != nil {
			return nil, err
		}
		return field.Slice(d, t), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ref, func() { s.refs.settle(key, ref) }, nil
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

// hashField folds a request's environment identity into h: the field or
// dynfield spec tuple that sweep.Spec.Digest writes too (the dynfield's
// followed by the slice time) or the exact bits of every inline sample.
func hashField(h io.Writer, spec *sweep.FieldSpec, dyn *sweep.DynFieldSpec, t float64, samples []SamplePoint) {
	if spec != nil {
		spec.WriteDigest(h)
		return
	}
	if dyn != nil {
		dyn.WriteDigest(h)
		fmt.Fprintf(h, "t=%g;", t)
		return
	}
	fmt.Fprintf(h, "samples=%d;", len(samples))
	for _, sp := range samples {
		fmt.Fprintf(h, "%016x%016x%016x;",
			math.Float64bits(sp.X), math.Float64bits(sp.Y), math.Float64bits(sp.Z))
	}
}

// normalize fills the CLI-parity defaults in place.
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

// digest is the cache key: every result-affecting input, nothing else.
func (pr *PlaceRequest) digest() string {
	h := fnv.New64a()
	io.WriteString(h, "place;")
	hashField(h, pr.Field, pr.Dynfield, pr.T, pr.Samples)
	fmt.Fprintf(h, "k=%d;rc=%g;grid=%d;delta=%d;seed=%d;strategy=%s",
		pr.K, pr.Rc, pr.GridN, pr.DeltaN, pr.Seed, pr.Strategy)
	return fmt.Sprintf("%016x", h.Sum64())
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

func (er *EvalRequest) digest() string {
	h := fnv.New64a()
	io.WriteString(h, "eval;")
	hashField(h, er.Field, er.Dynfield, er.T, er.Samples)
	fmt.Fprintf(h, "rc=%g;delta=%d;nodes=%d;", er.Rc, er.DeltaN, len(er.Nodes))
	for _, n := range er.Nodes {
		fmt.Fprintf(h, "%016x%016x;", math.Float64bits(n.X), math.Float64bits(n.Y))
	}
	fmt.Fprintf(h, "anchors=%d;", len(er.Anchors))
	for _, a := range er.Anchors {
		fmt.Fprintf(h, "%016x%016x;", math.Float64bits(a.X), math.Float64bits(a.Y))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// serveCached writes a cached or just-computed response in the
// requested rendering.
func serveCached(w http.ResponseWriter, r *http.Request, e cacheEntry) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, e.text)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.json)
}

// marshalEntry renders a response value once for both the JSON and text
// formats.
func marshalEntry(v any, text string) (cacheEntry, error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return cacheEntry{}, err
	}
	return cacheEntry{json: []byte(b.String()), text: text}, nil
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req PlaceRequest
	if !decodeStrict(w, r, &req) {
		return
	}
	req.normalize()
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "bad place request: %v", err)
		return
	}
	if err := checkEnv(req.Field, req.Dynfield, req.T, req.Samples); err != nil {
		httpError(w, http.StatusBadRequest, "bad place request: %v", err)
		return
	}
	key := req.digest()
	if e, ok := s.cache.get(key); ok {
		serveCached(w, r, e)
		return
	}
	ref, done, err := s.resolveField(req.Field, req.Dynfield, req.T, req.Samples)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad place request: %v", err)
		return
	}
	defer done()
	release, ok := s.lim.acquire(tenantKey(r))
	if !ok {
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, "tenant queue full; retry later")
		return
	}
	defer release()

	placer, err := strategy.LookupPlacement(req.Strategy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := placer.Place(ref, strategy.PlaceOptions{
		K: req.K, Rc: req.Rc, GridN: req.GridN, Seed: req.Seed, Metrics: s.cfg.Metrics,
	})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%s: %v", req.Strategy, err)
		return
	}
	ev, err := core.Evaluate(ref, p, req.Rc, req.DeltaN)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "evaluate: %v", err)
		return
	}
	resp := PlaceResponse{
		Strategy: req.Strategy, K: req.K, Rc: req.Rc,
		Delta: ev.Delta, Refined: p.Refined, Relays: p.Relays,
		Connected: ev.Connected, Components: ev.Components, MeanDegree: ev.MeanDegree,
		Nodes:   toPoints(p.Nodes),
		Anchors: toPoints(p.Anchors),
		Summary: PlacementSummary(req.Strategy, req.K, p, ev),
	}
	e, err := marshalEntry(resp, resp.Summary+"\n")
	if err != nil {
		httpError(w, http.StatusInternalServerError, "marshal response: %v", err)
		return
	}
	s.cache.put(key, e)
	serveCached(w, r, e)
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if !decodeStrict(w, r, &req) {
		return
	}
	req.normalize()
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "bad eval request: %v", err)
		return
	}
	if err := checkEnv(req.Field, req.Dynfield, req.T, req.Samples); err != nil {
		httpError(w, http.StatusBadRequest, "bad eval request: %v", err)
		return
	}
	key := req.digest()
	if e, ok := s.cache.get(key); ok {
		serveCached(w, r, e)
		return
	}
	ref, done, err := s.resolveField(req.Field, req.Dynfield, req.T, req.Samples)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad eval request: %v", err)
		return
	}
	defer done()
	release, ok := s.lim.acquire(tenantKey(r))
	if !ok {
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, "tenant queue full; retry later")
		return
	}
	defer release()

	p := core.Placement{Nodes: toVecs(req.Nodes), Anchors: toVecs(req.Anchors)}
	if len(p.Anchors) == 0 {
		corners := ref.Bounds().Corners()
		p.Anchors = append([]geom.Vec2(nil), corners[:]...)
	}
	ev, err := core.Evaluate(ref, p, req.Rc, req.DeltaN)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "evaluate: %v", err)
		return
	}
	resp := EvalResponse{
		K: len(req.Nodes), Rc: req.Rc,
		Delta: ev.Delta, Connected: ev.Connected,
		Components: ev.Components, MeanDegree: ev.MeanDegree,
	}
	e, err := marshalEntry(resp, fmt.Sprintf("k=%d: δ=%.1f connected=%v\n", resp.K, resp.Delta, resp.Connected))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "marshal response: %v", err)
		return
	}
	s.cache.put(key, e)
	serveCached(w, r, e)
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
