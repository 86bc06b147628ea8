package engine

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/surface"
)

// This file implements the paper's named future-work extension
// ("trace sampling of mobile nodes is worth to further study",
// Section 7): instead of contributing only its current point sample, a
// moving node also records measurements along its movement path. The
// reconstruction then draws on every sufficiently fresh trace sample,
// letting k mobile nodes emulate a much denser static deployment at the
// cost of staleness in a time-varying field.

// TraceOptions configures path sampling.
type TraceOptions struct {
	// Enabled turns trace sampling on.
	Enabled bool
	// Spacing is the distance between consecutive path samples in meters;
	// 0 defaults to 0.5.
	Spacing float64
	// MaxAge is how long (minutes) a trace sample stays usable before the
	// time-varying field has drifted too far; 0 defaults to 10.
	MaxAge float64
}

// agedSample is a trace sample plus its capture time.
type agedSample struct {
	t float64
	s field.Sample
}

// traceStore accumulates path samples and expires them by age. The zero
// value is ready to use.
type traceStore struct {
	spacing float64
	maxAge  float64
	buf     []agedSample // kept sorted by capture time (append order)
}

func newTraceStore(opts TraceOptions) *traceStore {
	spacing := opts.Spacing
	if spacing <= 0 {
		spacing = 0.5
	}
	maxAge := opts.MaxAge
	if maxAge <= 0 {
		maxAge = 10
	}
	return &traceStore{spacing: spacing, maxAge: maxAge}
}

// recordPath samples dyn along the segment from a to b (exclusive of both
// endpoints — those are covered by regular point sensing) at time t.
func (ts *traceStore) recordPath(dyn field.DynField, a, b geom.Vec2, t float64) {
	dist := a.Dist(b)
	if dist < ts.spacing {
		return
	}
	steps := int(dist / ts.spacing)
	for s := 1; s <= steps; s++ {
		frac := float64(s) * ts.spacing / dist
		if frac >= 1 {
			break
		}
		p := a.Lerp(b, frac)
		ts.buf = append(ts.buf, agedSample{t: t, s: field.Sample{Pos: p, Z: dyn.EvalAt(p, t)}})
	}
}

// record samples every node's hop from old[i] to next[i] at time t, then
// drops what will be stale at the end of the slot, t + slot.
func (ts *traceStore) record(dyn field.DynField, old, next []geom.Vec2, t, slot float64) {
	for i := range old {
		ts.recordPath(dyn, old[i], next[i], t)
	}
	ts.prune(t + slot)
}

// prune drops samples older than maxAge relative to now. Capture times are
// non-decreasing in buf, so pruning is a prefix cut.
func (ts *traceStore) prune(now float64) {
	cut := 0
	for cut < len(ts.buf) && now-ts.buf[cut].t > ts.maxAge {
		cut++
	}
	if cut > 0 {
		ts.buf = append(ts.buf[:0], ts.buf[cut:]...)
	}
}

// fresh returns the usable samples at time now.
func (ts *traceStore) fresh(now float64) []field.Sample {
	ts.prune(now)
	out := make([]field.Sample, 0, len(ts.buf))
	for _, a := range ts.buf {
		out = append(out, a.s)
	}
	return out
}

// size reports the number of stored samples (after no pruning).
func (ts *traceStore) size() int { return len(ts.buf) }

// DeltaTrace computes δ like Delta but reconstructs from the union of the
// alive nodes' current point samples and all fresh trace samples. It
// returns an error when trace sampling is disabled.
func (e *Engine) DeltaTrace(n int) (float64, error) {
	if e.trace == nil {
		return 0, fmt.Errorf("engine: trace sampling not enabled")
	}
	slice := field.Slice(e.dyn, e.t)
	samples := append(e.pointSamples(slice, e.trace.size()), e.trace.fresh(e.t)...)
	d, err := surface.DeltaSamples(slice, samples, n)
	if err != nil {
		return 0, fmt.Errorf("engine: trace delta: %w", err)
	}
	return d, nil
}
