package engine

import (
	"errors"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
)

func forestWorld(t *testing.T, k int) *Engine {
	t.Helper()
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	w, err := New(forest, field.GridLayout(forest.Bounds(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldErrors(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	if _, err := New(forest, nil, DefaultOptions()); !errors.Is(err, ErrNoNodes) {
		t.Errorf("want ErrNoNodes, got %v", err)
	}
	bad := DefaultOptions()
	bad.Config.Rc = 0
	if _, err := New(forest, field.GridLayout(forest.Bounds(), 4), bad); !errors.Is(err, mobile.ErrBadConfig) {
		t.Errorf("want ErrBadConfig, got %v", err)
	}
}

func TestWorldBasics(t *testing.T) {
	w := forestWorld(t, 9)
	if w.N() != 9 {
		t.Errorf("N = %d", w.N())
	}
	if w.Time() != 0 {
		t.Errorf("initial time = %v", w.Time())
	}
	if got := len(w.Positions()); got != 9 {
		t.Errorf("positions = %d", got)
	}
	// Positions returns a copy.
	w.Positions()[0] = geom.V2(-999, -999)
	if w.Positions()[0] == geom.V2(-999, -999) {
		t.Error("Positions exposed internal state")
	}
}

func TestStepAdvancesTime(t *testing.T) {
	w := forestWorld(t, 9)
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.T != 1 || w.Time() != 1 {
		t.Errorf("time after step = %v / %v", st.T, w.Time())
	}
}

func TestStepVelocityBoundSingleNode(t *testing.T) {
	// A lone node has no neighbors, hence no LCM drags: its per-slot
	// displacement is strictly bounded by MaxStep.
	forest := field.NewForest(field.DefaultForestConfig())
	w, err := New(forest, []geom.Vec2{geom.V2(30, 30)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		before := w.Positions()[0]
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		if d := before.Dist(w.Positions()[0]); d > w.opts.Config.MaxStep+1e-9 {
			t.Fatalf("slot %d: moved %v > MaxStep", s, d)
		}
	}
}

func TestStepDisplacementBoundedWithDrags(t *testing.T) {
	// With LCM drag cascades a node can exceed MaxStep, but displacement
	// stays small — the follower only keeps pace with its neighbors.
	w := forestWorld(t, 100)
	before := w.Positions()
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	after := w.Positions()
	maxStep := w.opts.Config.MaxStep
	for i := range before {
		if d := before[i].Dist(after[i]); d > 6*maxStep {
			t.Errorf("node %d moved %v in one slot", i, d)
		}
	}
}

func TestStepKeepsNodesInRegion(t *testing.T) {
	w := forestWorld(t, 25)
	for s := 0; s < 5; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		for i, p := range w.Positions() {
			if !w.dyn.Bounds().Contains(p) {
				t.Fatalf("step %d: node %d left region: %v", s, i, p)
			}
		}
	}
}

func TestConnectivityMaintained(t *testing.T) {
	// The paper's claim for LCM: starting from the connected grid, the
	// network stays connected while nodes move.
	w := forestWorld(t, 25) // 5×5 grid, spacing 20... need rc-compatible grid
	if !w.Connected() {
		// With 25 nodes on a 100m region the grid spacing is 20 > Rc=10;
		// use a denser world instead.
		w = forestWorld(t, 100)
	}
	if !w.Connected() {
		t.Fatal("initial grid not connected; test setup broken")
	}
	for s := 0; s < 10; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		if !w.Connected() {
			t.Fatalf("network disconnected at slot %d", s+1)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	w1 := forestWorld(t, 16)
	w2 := forestWorld(t, 16)
	for s := 0; s < 5; s++ {
		if _, err := w1.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := w2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2 := w1.Positions(), w2.Positions()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("node %d diverged: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestDelta(t *testing.T) {
	w := forestWorld(t, 36)
	d, err := w.Delta(25)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("δ = %v, want positive for sparse sampling", d)
	}
}

func TestDeltaImprovesOverRun(t *testing.T) {
	// The Fig. 10 shape: δ decreases (or at least does not blow up) as the
	// nodes adapt. Compare the mean of the first and last few slots.
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	w, err := New(forest, field.GridLayout(forest.Bounds(), 100), opts)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := w.Delta(25)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 15; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	dEnd, err := w.Delta(25)
	if err != nil {
		t.Fatal(err)
	}
	if dEnd > d0*1.3 {
		t.Errorf("δ worsened over run: %v -> %v", d0, dEnd)
	}
	if !w.Connected() {
		t.Error("network disconnected by end of run")
	}
}

func TestSlotMinutesDefault(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	opts.SlotMinutes = 0
	w, err := New(forest, field.GridLayout(forest.Bounds(), 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	if w.Time() != 1 {
		t.Errorf("default slot: time = %v, want 1", w.Time())
	}
}

func TestEnergyAccounting(t *testing.T) {
	w := forestWorld(t, 100)
	if w.TotalEnergy() != 0 {
		t.Errorf("initial energy = %v", w.TotalEnergy())
	}
	var slotSum float64
	for s := 0; s < 5; s++ {
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		slotSum += st.EnergySpent
	}
	total := w.TotalEnergy()
	if total <= 0 {
		t.Fatal("no energy spent despite movement")
	}
	if diff := total - slotSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-slot sum %v != cumulative %v", slotSum, total)
	}
}
