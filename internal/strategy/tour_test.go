package strategy

import (
	"math"
	"testing"

	"repro/internal/central"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
)

// TestTourStops pins the stop selection: most-deviant-from-mean first,
// duplicate positions dropped, capped at tourMaxStops, ties to the
// lower index.
func TestTourStops(t *testing.T) {
	if got := tourStops(nil); got != nil {
		t.Fatalf("no samples gave stops %v", got)
	}
	// Mean is 3.2 (the duplicate row counts), so |−4−3.2| = 7.2 ranks
	// above |9−3.2| = 5.8.
	samples := []field.Sample{
		{Pos: geom.V2(0, 0), Z: 1},
		{Pos: geom.V2(1, 0), Z: 9},
		{Pos: geom.V2(2, 0), Z: 1},
		{Pos: geom.V2(1, 0), Z: 9},  // duplicate position: dropped
		{Pos: geom.V2(3, 0), Z: -4}, // most deviant
	}
	got := tourStops(samples)
	if len(got) != 4 {
		t.Fatalf("stops = %v, want 4 distinct positions", got)
	}
	if got[0] != geom.V2(3, 0) || got[1] != geom.V2(1, 0) {
		t.Fatalf("deviance order wrong: %v", got)
	}

	// Cap: ten equally-deviant samples keep the first tourMaxStops in
	// index order.
	many := make([]field.Sample, 10)
	for i := range many {
		many[i] = field.Sample{Pos: geom.V2(float64(i), 1), Z: float64(i % 2)}
	}
	if got := tourStops(many); len(got) != tourMaxStops {
		t.Fatalf("cap: got %d stops, want %d", len(got), tourMaxStops)
	}
}

// TestTourControllerPatrols drives one controller by hand through a full
// lap: the home pins to the first observed position, the planned tour
// respects the 2·Rc budget, movement is MaxStep-limited, and closing the
// lap clears the plan so the next slot replans.
func TestTourControllerPatrols(t *testing.T) {
	cfg := mobile.DefaultConfig()
	cfg.Region = geom.Square(100)
	p, err := newTourController(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := p.(*tourController)
	if c.ID() != 3 {
		t.Fatalf("ID = %d", c.ID())
	}
	// slot runs one Estimate + Plan round, the engine's calling convention.
	slot := func(pos geom.Vec2, samples []field.Sample) (mobile.Decision, error) {
		if _, err := c.Estimate(nil, pos, samples); err != nil {
			return mobile.Decision{}, err
		}
		return c.Plan(pos, nil)
	}
	home := geom.V2(50, 50)
	if _, err := c.Estimate(nil, home, nil); err != nil {
		t.Fatal(err)
	}
	if !c.homeSet || c.home != home {
		t.Fatalf("home not pinned: %+v", c)
	}

	// One clear anomaly within reach; the rest flat.
	samples := []field.Sample{
		{Pos: geom.V2(50, 50), Z: 0},
		{Pos: geom.V2(53, 50), Z: 0},
		{Pos: geom.V2(55, 53), Z: 7},
		{Pos: geom.V2(47, 48), Z: 0},
	}
	d, err := slot(home, samples)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Move || len(c.wp) == 0 {
		t.Fatalf("controller did not start a patrol: %+v", d)
	}
	budget := tourBudgetMul * cfg.Rc
	if l := central.TourLength(c.home, c.wp[:len(c.wp)-1]); l > budget {
		t.Fatalf("planned tour length %g exceeds budget %g", l, budget)
	}
	if c.wp[len(c.wp)-1] != home {
		t.Fatalf("patrol does not end at home: %v", c.wp)
	}

	pos, traveled := home, 0.0
	lapped := false
	for step := 0; step < 200; step++ {
		d, err := slot(pos, samples)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Move {
			lapped = true
			break
		}
		next := c.Step(pos, d)
		if move := next.Dist(pos); move > cfg.MaxStep+1e-12 {
			t.Fatalf("step %d moved %g > MaxStep %g", step, move, cfg.MaxStep)
		}
		traveled += next.Dist(pos)
		pos = next
	}
	if !lapped {
		t.Fatal("patrol never closed its lap")
	}
	if len(c.wp) != 0 {
		t.Fatal("closed lap did not clear the plan")
	}
	if traveled > budget+5 {
		t.Fatalf("lap traveled %g, far beyond budget %g", traveled, budget)
	}
	if pos.Dist(home) > cfg.StopEps {
		t.Fatalf("lap ended %g from home", pos.Dist(home))
	}

	// Flat samples plan nothing: the node holds position.
	flat := []field.Sample{{Pos: geom.V2(50, 50), Z: 1}}
	d, err = slot(pos, flat)
	if err != nil {
		t.Fatal(err)
	}
	if d.Move {
		t.Fatalf("flat field started a patrol: %+v", d)
	}
	if moved := c.Step(pos, d); moved != pos {
		t.Fatalf("Move=false still moved: %v -> %v", pos, moved)
	}
}

// TestTourPlacementDeterministic: the tour-seeded placement is a pure
// function of its inputs, stays inside the region, anchors the corners,
// and actually reshapes the grid layout.
func TestTourPlacementDeterministic(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	place := func() []geom.Vec2 {
		p, err := placeTour(f, PlaceOptions{K: 16, Rc: 15, GridN: 40})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Anchors) != 4 {
			t.Fatalf("anchors: %v", p.Anchors)
		}
		return p.Nodes
	}
	a, b := place(), place()
	region := geom.Square(100)
	moved := false
	homes := field.GridLayout(region, 16)
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			t.Fatalf("node %d not deterministic: %v vs %v", i, a[i], b[i])
		}
		if !region.Contains(a[i]) {
			t.Fatalf("node %d outside region: %v", i, a[i])
		}
		if a[i] != homes[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("tour placement is identical to the grid layout")
	}

	if _, err := placeTour(f, PlaceOptions{K: 0, Rc: 15}); err == nil {
		t.Fatal("k=0 accepted")
	}
}
