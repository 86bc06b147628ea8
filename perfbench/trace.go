package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one slot, request or cell
// share an op id; Parent is the enclosing span's id (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing and never reads the clock, which is the untraced mode.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover. It is idempotent.
func (t *tracer) finish() {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	sort.Slice(children, func(a, b int) bool { return children[a].Start < children[b].Start })
	var total int64
	cur := lo
	for _, c := range children {
		s, e := max(c.Start, cur), min(c.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanStats is what the per-layer metrics read from one span name.
type spanStats struct {
	durMs  []float64 // per-span duration
	selfMs []float64 // per-span self time
	byOp   map[int64]float64
}

// stats groups finished spans by name; byOp sums durations per op id.
func (t *tracer) stats() map[string]*spanStats {
	t.finish()
	out := make(map[string]*spanStats)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{byOp: make(map[int64]float64)}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e6
		st.durMs = append(st.durMs, d)
		st.selfMs = append(st.selfMs, float64(s.Self)/1e6)
		st.byOp[s.Op] += d
	}
	return out
}

// meanDur is the mean duration of the named spans in ms (0 if none).
func meanDur(st map[string]*spanStats, name string) float64 {
	if s := st[name]; s != nil {
		return mean(s.durMs)
	}
	return 0
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	t.finish()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
