package engine

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/surface"
)

func TestTraceDisabledByDefault(t *testing.T) {
	w := forestWorld(t, 9)
	if _, err := w.DeltaTrace(20); err == nil {
		t.Error("DeltaTrace should fail when trace sampling is disabled")
	}
	if got := w.TraceSampleCount(); got != 0 {
		t.Errorf("TraceSampleCount = %d", got)
	}
}

func TestTraceStoreRecordPath(t *testing.T) {
	ts := newTraceStore(TraceOptions{Spacing: 1, MaxAge: 10})
	dyn := field.Static(field.Plane(geom.Square(100), 1, 0, 0))
	ts.recordPath(dyn, geom.V2(10, 0), geom.V2(15, 0), 3)
	// Segment of length 5 at spacing 1: samples at 11,12,13,14 (interior).
	if ts.size() != 4 {
		t.Fatalf("size = %d, want 4", ts.size())
	}
	for i, a := range ts.buf {
		wantX := 11 + float64(i)
		if math.Abs(a.s.Pos.X-wantX) > 1e-9 || a.s.Z != a.s.Pos.X {
			t.Errorf("sample %d = %+v, want x=%v", i, a.s, wantX)
		}
		if a.t != 3 {
			t.Errorf("sample %d time = %v", i, a.t)
		}
	}
	// A hop shorter than the spacing records nothing.
	ts.recordPath(dyn, geom.V2(0, 0), geom.V2(0.3, 0), 4)
	if ts.size() != 4 {
		t.Errorf("short hop recorded samples: size = %d", ts.size())
	}
}

func TestTraceStorePrune(t *testing.T) {
	ts := newTraceStore(TraceOptions{Spacing: 1, MaxAge: 5})
	dyn := field.Static(field.Constant(geom.Square(100), 1))
	ts.recordPath(dyn, geom.V2(0, 0), geom.V2(3, 0), 0)
	ts.recordPath(dyn, geom.V2(0, 0), geom.V2(3, 0), 4)
	if ts.size() != 4 {
		t.Fatalf("size = %d", ts.size())
	}
	got := ts.fresh(6) // t=0 batch is now 6 min old > MaxAge
	if len(got) != 2 {
		t.Errorf("fresh = %d samples, want 2", len(got))
	}
	if ts.size() != 2 {
		t.Errorf("prune left %d", ts.size())
	}
}

func TestTraceStoreDefaults(t *testing.T) {
	ts := newTraceStore(TraceOptions{})
	if ts.spacing != 0.5 || ts.maxAge != 10 {
		t.Errorf("defaults = %v/%v", ts.spacing, ts.maxAge)
	}
}

func TestTraceSamplingImprovesDelta(t *testing.T) {
	// The future-work claim: path samples emulate a denser deployment, so
	// the trace-augmented δ is at most the point-sample δ.
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	opts.Trace = TraceOptions{Enabled: true, Spacing: 0.5, MaxAge: 10}
	w, err := New(forest, field.GridLayout(forest.Bounds(), 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if w.TraceSampleCount() == 0 {
		t.Fatal("no trace samples accumulated despite movement")
	}
	point, err := w.Delta(25)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := w.DeltaTrace(25)
	if err != nil {
		t.Fatal(err)
	}
	if traced > point*1.02 {
		t.Errorf("trace sampling worsened δ: %v vs %v", traced, point)
	}
}

func TestTraceSamplesExpireOverTime(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	opts.Trace = TraceOptions{Enabled: true, Spacing: 0.5, MaxAge: 3}
	w, err := New(forest, field.GridLayout(forest.Bounds(), 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 0, 12)
	for s := 0; s < 12; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, w.TraceSampleCount())
	}
	// With a 3-minute age cap the store must not grow without bound: the
	// last counts stay within a small factor of the mid-run counts.
	if counts[11] > 4*counts[5]+100 {
		t.Errorf("trace store growing unboundedly: %v", counts)
	}
}

// TraceSampleCount returns the number of currently stored (fresh) trace
// samples, or 0 when trace sampling is disabled.
func (w *Engine) TraceSampleCount() int {
	if w.trace == nil {
		return 0
	}
	w.trace.prune(w.Time())
	return w.trace.size()
}

// TestDeltaTraceSkipsDeadNodes: like Delta, DeltaTrace must reconstruct
// from the alive nodes' point samples only — a crashed node reports
// nothing — plus the fresh trace samples.
func TestDeltaTraceSkipsDeadNodes(t *testing.T) {
	const k, deltaN = 64, 25
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	opts.Trace = TraceOptions{Enabled: true, Spacing: 0.5, MaxAge: 10}
	opts.Faults = fault.NewInjector(k, fault.Config{Seed: 3, Schedule: []fault.Event{{Slot: 2, Node: 27}}})
	w, err := New(forest, field.GridLayout(forest.Bounds(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if w.Injector().Alive(27) {
		t.Fatal("scheduled crash did not happen")
	}
	got, err := w.DeltaTrace(deltaN)
	if err != nil {
		t.Fatal(err)
	}
	slice := field.Slice(forest, w.Time())
	var alive, all []field.Sample
	for i, p := range w.Positions() {
		s := field.Sample{Pos: p, Z: slice.Eval(p)}
		all = append(all, s)
		if i != 27 {
			alive = append(alive, s)
		}
	}
	fresh := w.trace.fresh(w.Time())
	if len(fresh) == 0 {
		t.Fatal("no trace samples accumulated despite movement")
	}
	want, err := surface.DeltaSamples(slice, append(alive, fresh...), deltaN)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("DeltaTrace = %v, want %v over the alive points and fresh trace samples", got, want)
	}
	withDead, err := surface.DeltaSamples(slice, append(all, fresh...), deltaN)
	if err != nil {
		t.Fatal(err)
	}
	if withDead == want {
		t.Error("the dead node's sample does not change δ; the scenario cannot tell the two apart")
	}
}
