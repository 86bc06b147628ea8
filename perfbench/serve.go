package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/surface"
	"repro/internal/sweep"
)

// warmSeed generates the warm-up requests of every serve_place run.
const warmSeed = -1

// serveClients is the closed loop's client count: one per core of the
// 2-core reference host.
const serveClients = 2

// Request classes of the serve_place mix.
const (
	classPlace  = "place"  // /v1/place on a field spec
	classPlume  = "plume"  // /v1/place on a plume dynfield slice
	classInline = "inline" // /v1/place on uploaded samples (TIN path)
	classEval   = "eval"   // /v1/eval of a random deployment
	classRepeat = "repeat" // exact repeat of an earlier body (cache read)
)

// servedReq is one generated request.
type servedReq struct {
	class string
	path  string
	body  []byte
	src   int // index of the repeated request (classRepeat only)
	place *serve.PlaceRequest
	eval  *serve.EvalRequest
}

// reqResult is one response as the client saw it.
type reqResult struct {
	status int
	body   []byte
	ms     float64
	err    error
}

// servePhase is what one phase of serve_place measured.
type servePhase struct {
	latMs  []float64
	hitMs  []float64
	setupS []float64
	wallS  float64
	alloc  uint64
	n      int
	failed int
	hashes []uint64
	first  []reqResult // run 0's responses, by request index (its op ids)
	regs   []*obs.Registry
}

// serveSize is the request-list length of one run.
func serveSize(o options) int {
	if o.tiny {
		return 24
	}
	return 400
}

// runServe drives an in-process serve.Server, configured as cmd/served
// runs it (registry attached, default limits), with a closed loop of two
// clients over a seeded request list. Each run starts a fresh server, so
// its cache starts cold and every run must return byte-identical bodies.
func runServe(o options) (*outcome, error) {
	reqs, err := genRequests(o.seed, serveSize(o))
	if err != nil {
		return nil, err
	}
	// Warm-up requests come from a fixed other seed, so set-up does the
	// same work for every workload seed and never pre-fills the cache
	// for the measured list.
	warm, err := genRequests(warmSeed, 8)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	base, err := serveRuns(reqs, warm, phaseDur(o), nil)
	if err != nil {
		return nil, err
	}
	phases := []*servePhase{base}
	if !o.trace {
		m := out.metrics
		m["setup_s"] = quantile(base.setupS, 0.5)
		m["latency_p50_ms"] = quantile(base.latMs, 0.5)
		m["latency_p99_ms"] = quantile(base.latMs, 0.99)
		m["throughput_per_s"] = float64(base.n) / base.wallS
		m["alloc_mb_per_op"] = float64(base.alloc) / 1e6 / float64(base.n)
		out.note("serve_place: %d requests in %d runs of %d, %d beyond p99; p50 %.1f ms p99 %.1f ms",
			base.n, len(base.hashes), len(reqs), base.n-int(math.Ceil(0.99*float64(base.n))),
			m["latency_p50_ms"], m["latency_p99_ms"])
		// The byte-equality check replays a seeded sample directly.
		rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
		for _, i := range sampleDistinct(reqs, rng, 8) {
			if err := checkDirect(out, reqs, base.first, i, nil); err != nil {
				return nil, err
			}
		}
	} else {
		out.tr = newTracer()
		tp, err := serveRuns(reqs, warm, phaseDur(o), out.tr)
		if err != nil {
			return nil, err
		}
		phases = append(phases, tp)
		for i, r := range reqs {
			if r.class != classRepeat {
				if err := checkDirect(out, reqs, tp.first, i, out.tr); err != nil {
					return nil, err
				}
			}
		}
		serveLayers(out, base, tp, reqs)
	}
	h0 := base.hashes[0]
	same := true
	for _, p := range phases {
		out.attempted += p.n
		out.failed += p.failed
		for _, h := range p.hashes {
			same = same && h == h0
		}
	}
	out.check("serve response hash", same, "bodies hash %016x across runs", h0)
	sumD, nD := 0.0, 0
	for i, r := range reqs {
		if r.place == nil {
			continue // evaluations, and repeats, which would weight δ by the seed's repeat picks
		}
		var pr serve.PlaceResponse
		if err := json.Unmarshal(base.first[i].body, &pr); err != nil {
			out.check("decode place response", false, "request %d: %v", i, err)
			continue
		}
		out.check("finite delta", finite(pr.Delta), "request %d: %g", i, pr.Delta)
		sumD += pr.Delta
		nD++
	}
	if !o.trace {
		out.metrics["delta"] = sumD / float64(nD)
	}
	out.check("no failed requests", out.failed == 0, "%d of %d failed", out.failed, out.attempted)
	return out, nil
}

// sampleDistinct picks up to n seeded request indices, non-repeats, with
// every class represented.
func sampleDistinct(reqs []servedReq, rng *rand.Rand, n int) []int {
	byClass := make(map[string][]int)
	for i, r := range reqs {
		if r.class != classRepeat {
			byClass[r.class] = append(byClass[r.class], i)
		}
	}
	var out []int
	for len(out) < n {
		added := false
		for _, c := range []string{classPlace, classPlume, classInline, classEval} {
			if ids := byClass[c]; len(ids) > 0 && len(out) < n {
				k := rng.Intn(len(ids))
				out = append(out, ids[k])
				byClass[c] = append(ids[:k], ids[k+1:]...)
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}

// genRequests builds the seeded request list. Class counts, field kinds,
// plume slices and strategies are fixed shares of n, and k is drawn by
// stratified log-uniform sampling, so different seeds give different
// requests of the same cost mix. Repeats and evaluations stay under half
// the list, so the median latency falls inside the placements' spread
// rather than on the step between cheap and computed requests.
func genRequests(seed int64, n int) ([]servedReq, error) {
	rng := rand.New(rand.NewSource(seed))
	counts := []struct {
		class string
		n     int
	}{
		{classRepeat, n * 22 / 100}, {classEval, n * 22 / 100}, {classPlume, n * 8 / 100}, {classInline, n * 6 / 100},
	}
	classes := make([]string, 0, n)
	for _, c := range counts {
		for i := 0; i < c.n; i++ {
			classes = append(classes, c.class)
		}
	}
	for len(classes) < n {
		classes = append(classes, classPlace)
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	// A repeat needs an original well before it, so the repeated body
	// has usually finished (and been cached) by the time it is sent.
	const repeatLag = 16
	for i := 0; i < repeatLag && i < n; i++ {
		if classes[i] != classRepeat {
			continue
		}
		classes[i] = classPlace
		for j := n - 1; j >= repeatLag; j-- {
			if classes[j] != classRepeat {
				classes[i], classes[j] = classes[j], classRepeat
				break
			}
		}
	}
	total := make(map[string]int)
	for _, c := range classes {
		total[c]++
	}
	// kAt draws k for the j-th request of a class from the j-th of that
	// class's equal log-uniform strata over [lo, hi].
	kAt := func(class string, j int, lo, hi float64) int {
		u := (float64(j) + rng.Float64()) / float64(total[class])
		return int(lo * math.Exp(u*math.Log(hi/lo)))
	}
	kinds := []string{"forest", "peaks", "terrain", "ridge"}
	seen := make(map[string]int)
	nth := make(map[string]int)
	reqs := make([]servedReq, n)
	for i, class := range classes {
		j := nth[class]
		nth[class]++
		r := servedReq{class: class, path: "/v1/place"}
		switch class {
		case classRepeat:
			src := rng.Intn(i - repeatLag + 1)
			for reqs[src].class == classRepeat {
				src = reqs[src].src
			}
			r.path, r.body, r.src = reqs[src].path, reqs[src].body, src
		case classPlace, classPlume, classInline:
			pr := &serve.PlaceRequest{Rc: 10, GridN: 100, DeltaN: 100, Seed: 1 + rng.Int63n(1000), Strategy: "fra"}
			switch class {
			case classPlace:
				pr.Field = &sweep.FieldSpec{Kind: kinds[j%len(kinds)]}
				pr.K = kAt(class, j, 30, 400)
				// One placement in eight uses lloyd: one per block of
				// eight, rotating through the field kinds, so lloyd's k
				// covers the whole range in single steps and the slow
				// tail is a continuum rather than one repeated size.
				if j%8 == 4+(j/8)%len(kinds) {
					pr.Strategy = "lloyd"
				}
			case classPlume:
				pr.Dynfield = &sweep.DynFieldSpec{Kind: "plume", Seed: int64(1 + j%4), Sources: 2, SplitAt: 4}
				pr.T = 2.5 * float64(j%8)
				pr.K = kAt(class, j, 30, 200)
			case classInline:
				pr.Samples = inlineSamples(rng)
				pr.K = kAt(class, j, 30, 120)
			}
			r.place = pr
		case classEval:
			er := &serve.EvalRequest{Field: &sweep.FieldSpec{Kind: kinds[j%len(kinds)]}, Rc: 10, DeltaN: 100}
			for _, p := range field.RandomPositions(geom.Square(100), kAt(class, j, 30, 300), rng.Int63()) {
				er.Nodes = append(er.Nodes, serve.Point{X: p.X, Y: p.Y})
			}
			r.path, r.eval = "/v1/eval", er
		}
		if r.body == nil {
			var err error
			if r.place != nil {
				r.body, err = json.Marshal(r.place)
			} else {
				r.body, err = json.Marshal(r.eval)
			}
			if err != nil {
				return nil, err
			}
			if j, dup := seen[string(r.body)]; dup {
				return nil, fmt.Errorf("generated request %d duplicates %d", i, j)
			}
			seen[string(r.body)] = i
		}
		reqs[i] = r
	}
	return reqs, nil
}

// inlineSamples is an uploaded survey: the region corners plus a few
// hundred random points, valued from the default forest.
func inlineSamples(rng *rand.Rand) []serve.SamplePoint {
	f := field.NewForest(field.DefaultForestConfig()).Reference()
	pts := field.RandomPositions(geom.Square(100), 200+rng.Intn(200), rng.Int63())
	corners := geom.Square(100).Corners()
	pts = append(pts, corners[:]...)
	out := make([]serve.SamplePoint, len(pts))
	for i, p := range pts {
		out[i] = serve.SamplePoint{X: p.X, Y: p.Y, Z: f.Eval(p)}
	}
	return out
}

// serveRuns repeats fresh-server runs over the request list for d.
func serveRuns(reqs, warm []servedReq, d time.Duration, tr *tracer) (*servePhase, error) {
	ph := &servePhase{}
	err := repeatFor(d, 3, func(run int) error {
		t0 := time.Now()
		reg := obs.NewRegistry()
		srv := serve.New(serve.Config{Metrics: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		served := make(chan error, 1)
		go func() { served <- hs.Serve(ln) }()
		transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
		// The timeout only bounds a wedged request, so that a hang fails
		// the run instead of outliving the benchmark's time limit.
		client := &http.Client{Transport: transport, Timeout: time.Minute}
		base := "http://" + ln.Addr().String()
		stop := func() error {
			transport.CloseIdleConnections()
			serr := hs.Shutdown(context.Background())
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("serve: %w", err)
			}
			srv.Drain()
			return serr
		}
		// Warm-up: a health check and a few requests outside the measured
		// list, so connections, handlers and code paths are hot.
		if r := get(client, base+"/healthz"); r.err != nil || r.status != http.StatusOK {
			stop()
			return fmt.Errorf("warm-up /healthz: status %d: %v", r.status, r.err)
		}
		for _, w := range warm {
			if r := post(client, base+w.path, w.body); r.err != nil || r.status != http.StatusOK {
				stop()
				return fmt.Errorf("warm-up %s: status %d: %v", w.path, r.status, r.err)
			}
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())

		a0 := allocBytes()
		w0 := time.Now()
		res := drive(client, base, reqs, tr, int64(run)<<20)
		ph.wallS += time.Since(w0).Seconds()
		ph.alloc += allocBytes() - a0
		if err := stop(); err != nil {
			return err
		}
		ph.regs = append(ph.regs, reg)
		h := fnv.New64a()
		for i, r := range res {
			ph.n++
			if r.err != nil || r.status != http.StatusOK {
				ph.failed++
			}
			ph.latMs = append(ph.latMs, r.ms)
			if reqs[i].class == classRepeat {
				ph.hitMs = append(ph.hitMs, r.ms)
			}
			fmt.Fprintf(h, "%d %d %d\n", i, r.status, len(r.body))
			h.Write(r.body)
		}
		ph.hashes = append(ph.hashes, h.Sum64())
		if run == 0 {
			ph.first = res
		}
		return nil
	})
	return ph, err
}

// drive sends every request through a closed loop of serveClients
// clients: each sends its next request only after the previous reply.
func drive(client *http.Client, base string, reqs []servedReq, tr *tracer, op int64) []reqResult {
	res := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				id := tr.begin("serve.request", op|int64(i), 0)
				t0 := time.Now()
				res[i] = post(client, base+reqs[i].path, reqs[i].body)
				res[i].ms = float64(time.Since(t0)) / 1e6
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	return res
}

func post(client *http.Client, url string, body []byte) reqResult {
	return result(client.Post(url, "application/json", bytes.NewReader(body)))
}

func get(client *http.Client, url string) reqResult { return result(client.Get(url)) }

func result(resp *http.Response, err error) reqResult {
	if err != nil {
		return reqResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reqResult{status: resp.StatusCode, body: b, err: err}
}

// checkDirect recomputes request i outside the server — field build,
// strategy placement, core.Evaluate, serve.PlacementSummary and the
// server's JSON encoding — records spans for each call when tr is set,
// and checks the bytes against the served response.
func checkDirect(out *outcome, reqs []servedReq, got []reqResult, i int, tr *tracer) error {
	r := reqs[i]
	op := int64(i) // the op id of request i in a phase's first run
	root := tr.begin("serve.direct", op, 0)
	defer tr.end(root)
	var want []byte
	var err error
	if r.place != nil {
		want, err = directPlace(r.place, tr, op, root)
	} else {
		want, err = directEval(r.eval, tr, op, root)
	}
	if err != nil {
		return fmt.Errorf("direct request %d: %w", i, err)
	}
	out.check("direct "+r.class, bytes.Equal(want, got[i].body), "request %d: %d direct bytes vs %d served", i, len(want), len(got[i].body))
	return nil
}

// directField builds a request's reference surface the way the server
// does: a spec slice, or a TIN over uploaded samples.
func directField(spec *sweep.FieldSpec, dyn *sweep.DynFieldSpec, t float64, samples []serve.SamplePoint, tr *tracer, op int64, parent int) (field.Field, error) {
	if len(samples) > 0 {
		id := tr.begin("surface.triangulate", op, parent)
		defer tr.end(id)
		pts := make([]geom.Vec2, len(samples))
		fs := make([]field.Sample, len(samples))
		for i, s := range samples {
			pts[i] = geom.Vec2{X: s.X, Y: s.Y}
			fs[i] = field.Sample{Pos: pts[i], Z: s.Z}
		}
		region, ok := geom.BoundingBox(pts)
		if !ok {
			return nil, errors.New("samples span no area")
		}
		return surface.FromSamples(region, fs)
	}
	id := tr.begin("serve.field", op, parent)
	defer tr.end(id)
	if dyn != nil {
		d, err := dyn.Build()
		if err != nil {
			return nil, err
		}
		return field.Slice(d, t), nil
	}
	d, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return field.Slice(d, 0), nil
}

func directPlace(pr *serve.PlaceRequest, tr *tracer, op int64, parent int) ([]byte, error) {
	ref, err := directField(pr.Field, pr.Dynfield, pr.T, pr.Samples, tr, op, parent)
	if err != nil {
		return nil, err
	}
	placer, err := strategy.LookupPlacement(pr.Strategy)
	if err != nil {
		return nil, err
	}
	id := tr.begin("strategy.place", op, parent)
	p, err := placer.Place(ref, strategy.PlaceOptions{K: pr.K, Rc: pr.Rc, GridN: pr.GridN, Seed: pr.Seed})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("surface.evaluate", op, parent)
	ev, err := core.Evaluate(ref, p, pr.Rc, pr.DeltaN)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("serve.encode", op, parent)
	defer tr.end(id)
	return encodeIndented(serve.PlaceResponse{
		Strategy: pr.Strategy, K: pr.K, Rc: pr.Rc,
		Delta: ev.Delta, Refined: p.Refined, Relays: p.Relays,
		Connected: ev.Connected, Components: ev.Components, MeanDegree: ev.MeanDegree,
		Nodes: points(p.Nodes), Anchors: points(p.Anchors),
		Summary: serve.PlacementSummary(pr.Strategy, pr.K, p, ev),
	})
}

func directEval(er *serve.EvalRequest, tr *tracer, op int64, parent int) ([]byte, error) {
	ref, err := directField(er.Field, er.Dynfield, er.T, er.Samples, tr, op, parent)
	if err != nil {
		return nil, err
	}
	p := core.Placement{}
	for _, n := range er.Nodes {
		p.Nodes = append(p.Nodes, geom.Vec2{X: n.X, Y: n.Y})
	}
	corners := ref.Bounds().Corners()
	p.Anchors = corners[:]
	id := tr.begin("surface.evaluate", op, parent)
	ev, err := core.Evaluate(ref, p, er.Rc, er.DeltaN)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("serve.encode", op, parent)
	defer tr.end(id)
	return encodeIndented(serve.EvalResponse{
		K: len(er.Nodes), Rc: er.Rc, Delta: ev.Delta, Connected: ev.Connected,
		Components: ev.Components, MeanDegree: ev.MeanDegree,
	})
}

// encodeIndented renders a response body exactly as the server does.
func encodeIndented(v any) ([]byte, error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

func points(vs []geom.Vec2) []serve.Point {
	out := make([]serve.Point, len(vs))
	for i, v := range vs {
		out[i] = serve.Point{X: v.X, Y: v.Y}
	}
	return out
}

// serveLayers derives serve_place's per-layer metrics: direct-call spans
// for the layers, the server registries for FRA and the cache, and the
// served latency minus direct compute for the serving overhead.
func serveLayers(out *outcome, base, tp *servePhase, reqs []servedReq) {
	st := out.tr.stats()
	m := out.metrics
	var hits, misses, fraN, fraS, attempts, refined, relays float64
	for _, reg := range tp.regs {
		hits += float64(reg.Counter("serve_cache_hits_total").Value())
		misses += float64(reg.Counter("serve_cache_misses_total").Value())
		h := reg.Histogram("fra_run_seconds", nil)
		fraN += float64(h.Count())
		fraS += h.Sum()
		attempts += float64(reg.Counter("fra_refine_attempts_total").Value())
		refined += float64(reg.Counter("fra_refined_total").Value())
		relays += float64(reg.Counter("fra_relays_total").Value())
	}
	m["serve.cache_hit_share"] = ratio(hits, hits+misses)
	m["serve.hit_p50_ms"] = quantile(tp.hitMs, 0.5)
	m["core.fra_ms"] = 1e3 * ratio(fraS, fraN)
	m["core.fra_attempts_per_pick"] = ratio(attempts, refined)
	m["core.relay_share"] = ratio(relays, refined+relays)
	m["strategy.place_ms"] = meanDur(st, "strategy.place")
	m["surface.evaluate_ms"] = meanDur(st, "surface.evaluate")
	m["surface.triangulate_ms"] = meanDur(st, "surface.triangulate")
	m["serve.field_ms"] = meanDur(st, "serve.field")
	m["serve.encode_ms"] = meanDur(st, "serve.encode")
	// The unattributed part of each computed request: its served latency
	// in the traced run minus the direct compute of the same body.
	var over []float64
	if d := st["serve.direct"]; d != nil {
		for i, r := range reqs {
			if ms, ok := d.byOp[int64(i)]; ok && r.class != classRepeat {
				over = append(over, tp.first[i].ms-ms)
			}
		}
	}
	m["serve.overhead_ms"] = quantile(over, 0.5)
	m["trace_overhead_share"] = quantile(tp.latMs, 0.5)/quantile(base.latMs, 0.5) - 1
	out.note("serve_place traced: %d requests; cache hit share %.3f; overhead p50 %.2f ms over %d computed requests",
		tp.n, m["serve.cache_hit_share"], m["serve.overhead_ms"], len(over))
}
