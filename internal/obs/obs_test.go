package obs

import (
	"math"
	"sync"
	"testing"
)

func TestNilFastPath(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metrics, got %v %v %v", c, g, h)
	}
	// Every mutator and reader must be a no-op, not a panic.
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	h.StartTimer().Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil metrics must read as zero")
	}
	snap := reg.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Errorf("nil registry snapshot must be empty, got %+v", snap)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("slots")
	c.Add(3)
	c.Inc()
	c.Add(-10) // counters are monotonic: negative adds are dropped
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if reg.Counter("slots") != c {
		t.Errorf("same name must return the same counter")
	}
	g := reg.Gauge("delta")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Errorf("gauge = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, math.NaN()} {
		h.Observe(v)
	}
	// le semantics: 0.5,1 -> bucket0; 1.5,2 -> bucket1; 3,4 -> bucket2;
	// 5 -> overflow; NaN dropped.
	want := []int64{2, 2, 2, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if got := h.Sum(); got != 17 {
		t.Errorf("sum = %v, want 17", got)
	}
}

func TestHistogramTimer(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("stage_seconds", nil)
	tm := h.StartTimer()
	tm.Stop()
	if h.Count() != 1 {
		t.Fatalf("timer must record exactly one observation, got %d", h.Count())
	}
	if h.Sum() < 0 {
		t.Errorf("monotonic timer recorded a negative duration: %v", h.Sum())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	for _, fn := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
		func() { NewHistogram(nil) },
		func() { NewHistogram([]float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad bucket layout must panic")
				}
			}()
			fn()
		}()
	}
}

func TestKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Errorf("registering %q as two kinds must panic", "x")
		}
	}()
	reg.Gauge("x")
}

// TestConcurrent hammers every metric kind from many goroutines; run
// under -race this is the package's memory-model proof, and the totals
// prove no update is lost.
func TestConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 2000
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", []float64{0.25, 0.5, 0.75})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%4) * 0.25)
				// Exercise concurrent lookup too: must return the shared
				// instance, never a fresh one.
				if reg.Counter("c") != c {
					panic("lookup raced to a different counter")
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	var buckets int64
	for i := range h.counts {
		buckets += h.counts[i].Load()
	}
	if buckets != total {
		t.Errorf("bucket sum = %d, want %d", buckets, total)
	}
}
