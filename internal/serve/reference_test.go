package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/surface"
)

// refSeries reads the reference cache's three series.
func refSeries(reg *obs.Registry) (hits, misses int64, size float64) {
	snap := reg.Snapshot()
	return snap.Counters["serve_reference_hits_total"], snap.Counters["serve_reference_misses_total"],
		snap.Gauges["serve_reference_bytes"]
}

// evalBody is an /v1/eval body on env at delta_n = n; variant moves one
// node, so bodies that differ only in it miss the response cache.
func evalBody(env string, n, variant int) string {
	return fmt.Sprintf(`{%s,"nodes":[{"x":20,"y":20},{"x":50,"y":%d},{"x":80,"y":30}],"rc":60,"delta_n":%d}`,
		env, 40+variant, n)
}

// forestRefBytes is the size of a Reference of the default forest after
// a direct FRA placement and δ evaluation per k at placeBody's Rc 10,
// grid_n 40 and delta_n 40: its two lattices and FRA's trajectory.
func forestRefBytes(t *testing.T, ks ...int) int64 {
	t.Helper()
	ref := surface.NewReference(field.Slice(field.NewForest(field.DefaultForestConfig()), 0))
	for _, k := range ks {
		p, err := core.FRA(ref, core.FRAOptions{K: k, Rc: 10, GridN: 40})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Evaluate(ref, p, 10, 40); err != nil {
			t.Fatal(err)
		}
	}
	return ref.Bytes()
}

// TestServeReferenceWarmMatchesCold places twice on one field with
// different k: the second request reuses the field's lattices (a
// reference hit, a response-cache miss) and must answer with the bytes a
// fresh server computes for it.
func TestServeReferenceWarmMatchesCold(t *testing.T) {
	warm, reg := newTestServer(t, nil)
	other := strings.Replace(placeBody, `"k":20`, `"k":33`, 1)
	for _, body := range []string{placeBody, other} {
		if w := post(warm, "/v1/place", body, nil); w.Code != http.StatusOK {
			t.Fatalf("place: code %d body %s", w.Code, w.Body.String())
		}
	}
	// The forest's lattices, and FRA's trajectory on top of them.
	forest := forestRefBytes(t, 20, 33)
	if forest <= (41*41+40*40)*8 {
		t.Fatalf("a placed-on reference holds %d bytes, no more than its lattices", forest)
	}
	if hits, misses, size := refSeries(reg); hits != 1 || misses != 1 || size != float64(forest) {
		t.Fatalf("reference hits/misses/bytes = %d/%d/%g, want 1/1/%d", hits, misses, size, forest)
	}
	cold, _ := newTestServer(t, nil)
	for _, format := range []string{"", "?format=text"} {
		a := post(warm, "/v1/place"+format, other, nil)
		b := post(cold, "/v1/place"+format, other, nil)
		if a.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("format %q: warm reference answered %d\n%s\ncold answered\n%s", format, a.Code, a.Body, b.Body)
		}
	}
	// An evaluation on the same field shares the δ lattice; a dynfield is
	// keyed by its slice time too.
	plume := func(t float64) string {
		return fmt.Sprintf(`"dynfield":{"kind":"plume","seed":2,"sources":2,"split_at":4},"t":%g`, t)
	}
	for i, body := range []string{
		evalBody(`"field":{"kind":"forest"}`, 40, 0),
		evalBody(plume(2.5), 20, 0),
		evalBody(plume(2.5), 20, 1),
		evalBody(plume(5), 20, 0),
	} {
		if w := post(warm, "/v1/eval", body, nil); w.Code != http.StatusOK {
			t.Fatalf("eval %d: code %d body %s", i, w.Code, w.Body.String())
		}
	}
	want := forest + 2*20*20*8
	if hits, misses, size := refSeries(reg); hits != 3 || misses != 3 || size != float64(want) {
		t.Fatalf("reference hits/misses/bytes = %d/%d/%g, want 3/3/%d", hits, misses, size, want)
	}
}

// TestServeReferenceFIFOEviction fills a cache capped at two δ lattices:
// a third field evicts the oldest, and the evicted field misses again.
func TestServeReferenceFIFOEviction(t *testing.T) {
	s, reg := newTestServer(t, nil)
	const lattice = 10 * 10 * 8
	s.refs.max = 2 * lattice
	steps := []struct {
		kind string
		hit  bool
	}{
		{"forest", false}, {"peaks", false}, {"terrain", false}, // evicts forest
		{"peaks", true}, {"forest", false}, // evicts peaks
		{"terrain", true}, {"peaks", false},
	}
	var hits, misses int64
	for i, st := range steps {
		if w := post(s, "/v1/eval", evalBody(fmt.Sprintf(`"field":{"kind":%q}`, st.kind), 10, i), nil); w.Code != http.StatusOK {
			t.Fatalf("step %d: code %d body %s", i, w.Code, w.Body.String())
		}
		if st.hit {
			hits++
		} else {
			misses++
		}
		h, m, size := refSeries(reg)
		if h != hits || m != misses || size != float64(min(i+1, 2)*lattice) {
			t.Fatalf("step %d (%s): reference hits/misses/bytes = %d/%d/%g, want %d/%d/%d",
				i, st.kind, h, m, size, hits, misses, min(i+1, 2)*lattice)
		}
	}
}

// TestServeReferenceOversizeNotRetained caps the cache below one 10×10
// lattice: such a reference is computed and dropped without evicting the
// others, and a retained one that grows past the cap by filling a new
// size is dropped too.
func TestServeReferenceOversizeNotRetained(t *testing.T) {
	s, reg := newTestServer(t, nil)
	s.refs.max = 10*10*8 - 1
	steps := []struct {
		kind   string
		n      int
		hits   int64
		misses int64
		size   float64
	}{
		{"peaks", 5, 0, 1, 200},
		{"forest", 10, 0, 2, 200}, // 800 bytes: not retained
		{"forest", 10, 0, 3, 200}, // so it misses again
		{"forest", 5, 0, 4, 400},
		{"forest", 5, 1, 4, 400},
		{"forest", 10, 2, 4, 200}, // grows to 1000 bytes: dropped
		{"peaks", 5, 3, 4, 200},
		{"forest", 5, 3, 5, 400},
	}
	for i, st := range steps {
		if w := post(s, "/v1/eval", evalBody(fmt.Sprintf(`"field":{"kind":%q}`, st.kind), st.n, i), nil); w.Code != http.StatusOK {
			t.Fatalf("step %d: code %d body %s", i, w.Code, w.Body.String())
		}
		if h, m, size := refSeries(reg); h != st.hits || m != st.misses || size != st.size {
			t.Fatalf("step %d (%s, n=%d): reference hits/misses/bytes = %d/%d/%g, want %d/%d/%g",
				i, st.kind, st.n, h, m, size, st.hits, st.misses, st.size)
		}
	}
}

// inlineBody is a /v1/place body uploading a 7×7 lattice of Peaks
// samples, after the extra JSON members in prefix, with placeBody's knobs.
func inlineBody(prefix string) string {
	ref := field.Peaks(geom.Square(100))
	var sb strings.Builder
	sb.WriteString("{" + prefix + `"samples":[`)
	for i := 0; i <= 6; i++ {
		for j := 0; j <= 6; j++ {
			if i+j > 0 {
				sb.WriteByte(',')
			}
			x, y := float64(i)*100/6, float64(j)*100/6
			fmt.Fprintf(&sb, `{"x":%g,"y":%g,"z":%g}`, x, y, ref.Eval(geom.Vec2{X: x, Y: y}))
		}
	}
	sb.WriteString(`],"k":20,"rc":10,"grid_n":40,"delta_n":40,"seed":1,"strategy":"fra"}`)
	return sb.String()
}

// TestServeInlineRepeatIsCacheHit repeats an inline upload: the repeat is
// answered from the response cache, byte for byte, and inline samples
// never enter the reference cache.
func TestServeInlineRepeatIsCacheHit(t *testing.T) {
	s, reg := newTestServer(t, nil)
	first := post(s, "/v1/place", inlineBody(""), nil)
	second := post(s, "/v1/place", inlineBody(""), nil)
	if first.Code != http.StatusOK || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("inline repeat: codes %d %d, bodies equal %v", first.Code, second.Code,
			bytes.Equal(first.Body.Bytes(), second.Body.Bytes()))
	}
	snap := reg.Snapshot()
	if hits, misses := snap.Counters["serve_cache_hits_total"], snap.Counters["serve_cache_misses_total"]; hits != 1 || misses != 1 {
		t.Fatalf("response cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if hits, misses, size := refSeries(reg); hits != 0 || misses != 0 || size != 0 {
		t.Fatalf("inline samples reached the reference cache: %d/%d/%g", hits, misses, size)
	}
}

// TestServeFieldAndSamplesAfterCachedField sends a body naming both a
// field and samples after the field-only body was cached. The response
// digest hashes only the field spec when one is set, so the two bodies
// share a key; the mutual-exclusion check must still answer 400.
func TestServeFieldAndSamplesAfterCachedField(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if w := post(s, "/v1/place", placeBody, nil); w.Code != http.StatusOK {
		t.Fatalf("field-only place: code %d body %s", w.Code, w.Body.String())
	}
	w := post(s, "/v1/place", inlineBody(`"field":{"kind":"forest"},`), nil)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "mutually exclusive") {
		t.Fatalf("field+samples after a cached field-only request: code %d body %s", w.Code, w.Body.String())
	}
}

// TestServeReferenceConcurrentMisses sends evaluations on one cold field
// from several goroutines at once: each answers what a lone request on a
// fresh server answers, and the cache ends up holding one δ lattice.
func TestServeReferenceConcurrentMisses(t *testing.T) {
	s, reg := newTestServer(t, func(c *Config) { c.MaxInflight = 8 })
	const workers = 8
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := post(s, "/v1/eval", evalBody(`"field":{"kind":"peaks"}`, 30, w), nil); r.Code == http.StatusOK {
				got[w] = r.Body.Bytes()
			}
		}()
	}
	wg.Wait()
	for w := range got {
		fresh, _ := newTestServer(t, nil)
		want := post(fresh, "/v1/eval", evalBody(`"field":{"kind":"peaks"}`, 30, w), nil)
		if !bytes.Equal(got[w], want.Body.Bytes()) {
			t.Errorf("worker %d answered %q, a fresh server %q", w, got[w], want.Body)
		}
	}
	if hits, misses, size := refSeries(reg); hits+misses != workers || size != 30*30*8 {
		t.Errorf("reference hits/misses/bytes = %d/%d/%g, want %d requests and %d bytes", hits, misses, size, workers, 30*30*8)
	}
}
