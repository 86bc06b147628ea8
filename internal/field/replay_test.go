package field

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// replayRecords is a two-epoch trace with two stations: the west station
// cools from 10 to 2 while the east one warms from 4 to 8.
func replayRecords() []TraceRecord {
	return []TraceRecord{
		{T: 0, Sample: Sample{Pos: geom.V2(20, 50), Z: 10}},
		{T: 0, Sample: Sample{Pos: geom.V2(80, 50), Z: 4}},
		{T: 10, Sample: Sample{Pos: geom.V2(20, 50), Z: 2}},
		{T: 10, Sample: Sample{Pos: geom.V2(80, 50), Z: 8}},
	}
}

// TestReplayBracketsAndClamps pins the temporal semantics: exact hits on
// an epoch take the no-blend path, times in between blend linearly, and
// times outside the recorded span clamp to the nearest epoch.
func TestReplayBracketsAndClamps(t *testing.T) {
	rp, err := NewReplay(geom.Square(100), replayRecords())
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.times) != 2 {
		t.Fatalf("epochs = %d, want 2", len(rp.times))
	}
	west := geom.V2(10, 50)
	cases := []struct {
		t, want float64
	}{
		{0, 10},  // exact first epoch
		{10, 2},  // exact second epoch
		{5, 6},   // midpoint blend (10+2)/2
		{2.5, 8}, // quarter blend
		{-3, 10}, // clamped before the span
		{40, 2},  // clamped after the span
	}
	for _, c := range cases {
		if got := rp.EvalAt(west, c.t); got != c.want {
			t.Errorf("EvalAt(west, %g) = %g, want %g", c.t, got, c.want)
		}
	}
	// The spatial fit is nearest-sample: east of the midline the east
	// station wins.
	if got := rp.EvalAt(geom.V2(90, 50), 5); got != 6 {
		t.Errorf("east blend = %g, want 6", got)
	}
	if b := rp.Bounds(); b != geom.Square(100) {
		t.Errorf("Bounds = %v", b)
	}
}

// TestReplayUnsortedDuplicateTorn: record order must not matter, exact
// duplicate positions within an epoch resolve first-wins in input order,
// and a replay built from shuffled rows is bit-identical to the sorted
// build.
func TestReplayUnsortedDuplicateTorn(t *testing.T) {
	shuffled := []TraceRecord{
		{T: 10, Sample: Sample{Pos: geom.V2(80, 50), Z: 8}},
		{T: 0, Sample: Sample{Pos: geom.V2(20, 50), Z: 10}},
		{T: 0, Sample: Sample{Pos: geom.V2(20, 50), Z: 99}}, // dup: loses to first
		{T: 10, Sample: Sample{Pos: geom.V2(20, 50), Z: 2}},
		{T: 0, Sample: Sample{Pos: geom.V2(80, 50), Z: 4}},
	}
	got, err := NewReplay(geom.Square(100), shuffled)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewReplay(geom.Square(100), replayRecords())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.times) != len(want.times) {
		t.Fatalf("epochs %d != %d", len(got.times), len(want.times))
	}
	for _, tm := range []float64{-1, 0, 3.25, 10, 11} {
		for _, q := range GridPositions(geom.Square(100), 7) {
			g, w := got.EvalAt(q, tm), want.EvalAt(q, tm)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("t=%g q=%v: shuffled %g != sorted %g", tm, q, g, w)
			}
		}
	}
	// The duplicate row must have lost: the first record wins.
	if got.EvalAt(geom.V2(20, 50), 0) != 10 {
		t.Fatal("duplicate-position record overrode the first")
	}
}

// TestReplayRejectsBadRecords: empty input, NaN timestamps and
// non-finite positions are construction errors, not latent panics.
func TestReplayRejectsBadRecords(t *testing.T) {
	if _, err := NewReplay(geom.Square(100), nil); err == nil {
		t.Error("empty records accepted")
	}
	bad := []TraceRecord{{T: math.NaN(), Sample: Sample{Pos: geom.V2(1, 1), Z: 0}}}
	if _, err := NewReplay(geom.Square(100), bad); err == nil {
		t.Error("NaN timestamp accepted")
	}
	bad = []TraceRecord{{T: 0, Sample: Sample{Pos: geom.V2(math.Inf(1), 1), Z: 0}}}
	if _, err := NewReplay(geom.Square(100), bad); err == nil {
		t.Error("infinite position accepted")
	}
	bad = []TraceRecord{{T: 0, Sample: Sample{Pos: geom.V2(1, math.NaN()), Z: 0}}}
	if _, err := NewReplay(geom.Square(100), bad); err == nil {
		t.Error("NaN position accepted")
	}
}

// TestReplayQueryRobustness: queries are never rejected — NaN or infinite
// query times and positions still return without panicking (SearchFloat64s
// sends NaN past the end, so it clamps to the last epoch).
func TestReplayQueryRobustness(t *testing.T) {
	rp, err := NewReplay(geom.Square(100), replayRecords())
	if err != nil {
		t.Fatal(err)
	}
	_ = rp.EvalAt(geom.V2(50, 50), math.NaN())
	_ = rp.EvalAt(geom.V2(math.NaN(), 0), 5)
	_ = rp.EvalAt(geom.V2(math.Inf(1), math.Inf(-1)), math.Inf(1))
}
