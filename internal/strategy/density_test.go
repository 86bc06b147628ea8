package strategy_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/strategy"
)

// TestDensityPlacementDeterministic checks the density placement is a
// pure function of (field, options): same seed, same bits; different
// seed, different drop.
func TestDensityPlacementDeterministic(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	placer, err := strategy.LookupPlacement("density")
	if err != nil {
		t.Fatal(err)
	}
	opts := strategy.PlaceOptions{K: 20, Rc: 15, Seed: 3}
	a, err := placer.Place(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := placer.Place(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "nodes", b.Nodes, a.Nodes)
	if a.Refined < 1 {
		t.Fatalf("no repulsion rounds recorded: %+v", a)
	}
	for i, p := range a.Nodes {
		if !f.Bounds().Contains(p) {
			t.Fatalf("node %d at %v escaped the region", i, p)
		}
	}

	opts.Seed = 4
	c, err := placer.Place(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Nodes {
		if a.Nodes[i] != c.Nodes[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 3 and seed 4 produced identical placements")
	}
}

// TestDensityMovementDeterministic runs the budgeted-repulsion movement
// twice through the full engine and demands bit-identical trajectories.
func TestDensityMovementDeterministic(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	init := field.GridLayout(forest.Bounds(), 25)
	run := func() *engine.Engine {
		opts := engine.DefaultOptions()
		opts.NewController = strategy.MovementFor("density").NewController
		w, err := engine.New(forest, init, opts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := run(), run()
	for s := 0; s < 3; s++ {
		if _, err := a.Step(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if _, err := b.Step(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		samePoints(t, "positions", b.Positions(), a.Positions())
	}
}
