package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"
)

// TestServeInlineUploadWaitsForAdmission holds a tenant's only inflight
// slot and its only queue slot, then uploads 50,004 inline samples: the
// 429 must come back in under half the time a direct triangulation of
// the same samples takes, because the environment is built only after
// admission. A bad field kind is still a 400 while the slots are held.
func TestServeInlineUploadWaitsForAdmission(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.QueueDepth = 1
		c.CacheSize = -1
	})
	release, ok := s.lim.acquire("anonymous")
	if !ok {
		t.Fatal("priming acquire refused")
	}
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if r, ok := s.lim.acquire("anonymous"); ok {
			r()
		}
	}()
	waitFor(t, "1 queued waiter", func() bool { return s.lim.queueDepth() == 1 })

	rng := rand.New(rand.NewSource(1))
	samples := []SamplePoint{{0, 0, 0}, {100, 0, 1}, {0, 100, 2}, {100, 100, 3}}
	for len(samples) < 50004 {
		samples = append(samples, SamplePoint{X: 100 * rng.Float64(), Y: 100 * rng.Float64(), Z: rng.Float64()})
	}
	body, err := json.Marshal(PlaceRequest{Samples: samples, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	w := post(s, "/v1/place", string(body), nil)
	refused := time.Since(start)
	if w.Code != http.StatusTooManyRequests || w.Result().Header.Get("Retry-After") != retryAfterSeconds {
		t.Fatalf("upload with every slot held: code %d Retry-After %q, want 429 and %q",
			w.Code, w.Result().Header.Get("Retry-After"), retryAfterSeconds)
	}
	start = time.Now()
	if _, err := triangulate(samples); err != nil {
		t.Fatal(err)
	}
	direct := time.Since(start)
	t.Logf("429 after %v; a direct triangulation took %v", refused, direct)
	if refused >= direct/2 {
		t.Errorf("429 after %v, want under half of the direct triangulation's %v", refused, direct)
	}
	if w := post(s, "/v1/place", `{"field":{"kind":"volcano"},"k":5}`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad field kind with every slot held: code %d, want 400", w.Code)
	}
	release()
	<-queued
}
