// Package obs is the reproduction's zero-dependency observability core:
// atomic counters, float gauges, fixed-bucket histograms with monotonic
// timers, and a Registry that names them and exports snapshots as JSON or
// Prometheus text.
//
// # Nil fast path
//
// Instrumentation must cost nothing when nobody is watching. Every
// constructor on *Registry accepts a nil receiver and returns a nil
// metric, and every mutating method on a nil metric is a no-op — a single
// predictable branch, no time source, no atomics. Hot paths therefore
// hold plain metric pointers and call them unconditionally:
//
//	var reg *obs.Registry            // nil: observability off
//	c := reg.Counter("engine_slots_total")
//	c.Inc()                          // no-op, one nil check
//
// The engine additionally hoists the nil check around its per-stage
// timers so the disabled path never reads the clock; the benchmark
// contract is <2% overhead on the step_large_n_metrics scenario with a
// live registry and zero overhead without one.
//
// # Concurrency
//
// All metric mutators are safe for concurrent use: counters and
// histogram buckets are atomic adds, gauges and float sums are
// compare-and-swap loops over math.Float64bits. Registry lookups take a
// mutex but are meant to be done once, at construction time, never per
// observation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil counter or n <= 0; a
// counter only moves forward).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil gauge).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge via a CAS loop (no-op on a nil gauge).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative-style histogram: bucket i counts
// observations v <= bounds[i], with one implicit overflow bucket above the
// last bound. Bounds are set at construction and never change, so
// observation is a binary search plus two atomic adds — no allocation.
type Histogram struct {
	bounds []float64      // ascending upper bounds (le semantics)
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// NewHistogram returns a histogram with the given ascending upper bounds.
// It panics on unsorted or empty bounds — bucket layouts are static
// configuration, not runtime input. Prefer Registry.Histogram, which also
// names and exports it.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value (no-op on a nil histogram). NaN observations
// are dropped: they would poison the sum without fitting any bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// sort.SearchFloat64s finds the first bound >= v, which is exactly the
	// le-bucket; values above every bound land in the overflow slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Timer is an in-flight histogram observation. It is a value type: one
// StartTimer/Stop pair costs two monotonic clock reads and no allocation.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing against the histogram. On a nil histogram the
// returned timer is inert and the clock is never read.
func (h *Histogram) StartTimer() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed seconds since StartTimer (no-op for an inert
// timer). time.Since uses the monotonic clock, so wall-clock steps cannot
// produce negative or wild observations.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(time.Since(t.start).Seconds())
}

// ExpBuckets returns n ascending bounds starting at start and growing by
// factor — the standard layout for latency histograms. It panics on
// non-positive start, factor <= 1 or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefBuckets are the default duration bounds in seconds: 1µs to ~67s in
// ×4 steps — wide enough for both a single engine stage and a whole FRA
// run.
func DefBuckets() []float64 { return ExpBuckets(1e-6, 4, 13) }

// Registry names and owns a set of metrics. The zero value is not usable;
// use NewRegistry. A nil *Registry is the "observability off" registry:
// every constructor returns a nil metric and every export is empty.
type Registry struct {
	mu     sync.Mutex
	kinds  map[string]string // name -> "counter" | "gauge" | "histogram"
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:  make(map[string]string),
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// check registers name under kind, panicking when the name is already
// taken by a different kind: silent aliasing would corrupt the export.
func (r *Registry) check(name, kind string) {
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, have, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the named counter, creating it on first use. Nil
// registry -> nil counter (all operations no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(name, "counter")
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry
// -> nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds and return the existing
// instance). Nil registry -> nil histogram; pass nil bounds for
// DefBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(name, "histogram")
	h := r.hists[name]
	if h == nil {
		if bounds == nil {
			bounds = DefBuckets()
		}
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
