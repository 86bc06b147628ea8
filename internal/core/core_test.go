package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/graph"
)

func testField() field.Field {
	return field.NewForest(field.DefaultForestConfig()).Reference()
}

func TestFRABadParams(t *testing.T) {
	f := field.Constant(geom.Square(10), 0)
	for _, opts := range []FRAOptions{
		{K: 0, Rc: 10},
		{K: 5, Rc: 0},
		{K: 5, Rc: -1},
		{K: 5, Rc: math.NaN()},
		{K: 5, Rc: math.Inf(1)},
		{K: 5, Rc: math.Inf(-1)},
		{K: 5, Rc: 10, GridN: -1},
	} {
		if _, err := FRA(f, opts); !errors.Is(err, ErrBadParams) {
			t.Errorf("opts %+v: want ErrBadParams, got %v", opts, err)
		}
	}
}

func TestFRAPlacesExactlyK(t *testing.T) {
	f := testField()
	for _, k := range []int{1, 5, 20, 60} {
		opts := DefaultFRAOptions(k)
		opts.GridN = 25 // keep the test fast
		p, err := FRA(f, opts)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(p.Nodes) != k {
			t.Errorf("k=%d: placed %d nodes", k, len(p.Nodes))
		}
		if p.Refined+p.Relays != len(p.Nodes) {
			t.Errorf("k=%d: refined %d + relays %d != %d",
				k, p.Refined, p.Relays, len(p.Nodes))
		}
		for _, n := range p.Nodes {
			if !f.Bounds().Contains(n) {
				t.Errorf("k=%d: node %v outside region", k, n)
			}
		}
	}
}

func TestFRAConnectivity(t *testing.T) {
	// The paper's hard constraint: G(V,E) must be connected. For k large
	// enough to afford connectivity, FRA must deliver it.
	f := testField()
	for _, k := range []int{20, 40, 80} {
		opts := DefaultFRAOptions(k)
		opts.GridN = 25
		p, err := FRA(f, opts)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		g := graph.NewUnitDisk(p.Nodes, opts.Rc)
		if !g.Connected() {
			t.Errorf("k=%d: FRA output disconnected (%d components)",
				k, g.NumComponents())
		}
	}
}

func TestFRAAnchors(t *testing.T) {
	f := testField()
	opts := DefaultFRAOptions(10)
	opts.GridN = 20
	p, err := FRA(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Anchors) != 4 {
		t.Errorf("anchors = %d, want 4", len(p.Anchors))
	}
}

func TestFRABeatsRandom(t *testing.T) {
	// The headline OSD result (Fig. 7): FRA's δ is below random placement
	// for moderate k.
	f := testField()
	opts := DefaultFRAOptions(40)
	opts.GridN = 50
	p, err := FRA(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	fra, err := Evaluate(f, p, opts.Rc, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Average several random draws for a stable baseline.
	sum := 0.0
	const draws = 5
	for s := int64(0); s < draws; s++ {
		r := RandomPlacement(f.Bounds(), 40, s)
		r.Anchors = p.Anchors // same reconstruction anchors for fairness
		ev, err := Evaluate(f, r, opts.Rc, 50)
		if err != nil {
			t.Fatal(err)
		}
		sum += ev.Delta
	}
	randDelta := sum / draws
	if fra.Delta >= randDelta {
		t.Errorf("FRA δ=%v not better than random δ=%v", fra.Delta, randDelta)
	}
}

func TestFRADeltaDecreasesWithK(t *testing.T) {
	f := testField()
	var prev float64
	for i, k := range []int{10, 40, 120} {
		opts := DefaultFRAOptions(k)
		opts.GridN = 25
		p, err := FRA(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(f, p, opts.Rc, 50)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && ev.Delta > prev*1.1 {
			t.Errorf("δ grew substantially from k: %v -> %v", prev, ev.Delta)
		}
		prev = ev.Delta
	}
}

func TestRandomPlacement(t *testing.T) {
	p := RandomPlacement(geom.Square(100), 30, 1)
	if len(p.Nodes) != 30 {
		t.Fatalf("nodes = %d", len(p.Nodes))
	}
	q := RandomPlacement(geom.Square(100), 30, 1)
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestUniformPlacement(t *testing.T) {
	p := UniformPlacement(geom.Square(100), 16)
	if len(p.Nodes) != 16 {
		t.Fatalf("nodes = %d", len(p.Nodes))
	}
	// A 16-node uniform layout on a square is a 4×4 grid.
	xs := map[float64]bool{}
	for _, n := range p.Nodes {
		xs[n.X] = true
	}
	if len(xs) != 4 {
		t.Errorf("distinct columns = %d, want 4", len(xs))
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := Evaluate(testField(), Placement{}, 10, 20); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
}

func TestEvaluateConnectivityStats(t *testing.T) {
	f := field.Constant(geom.Square(100), 1)
	p := Placement{Nodes: []geom.Vec2{
		geom.V2(10, 10), geom.V2(15, 10), geom.V2(90, 90),
	}}
	ev, err := Evaluate(f, p, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Connected {
		t.Error("disconnected placement reported connected")
	}
	if ev.Components != 2 {
		t.Errorf("components = %d, want 2", ev.Components)
	}
	if ev.MeanDegree <= 0 {
		t.Errorf("mean degree = %v", ev.MeanDegree)
	}
	if ev.Delta != 0 { // constant field: any reconstruction is exact
		t.Errorf("δ = %v, want 0 for constant field", ev.Delta)
	}
}

// TestFRARefinementStep encodes the paper's Fig. 2 schematic: one
// refinement step selects the maximum-local-error position, adds it to the
// triangulation, and the updated local errors decrease around it.
func TestFRARefinementStep(t *testing.T) {
	// Field with one dominant bump: the first refinement pick must land on
	// (or next to) the bump, and the local error there must collapse.
	f := &field.Mixture{
		Region: geom.Square(100),
		Blobs:  []field.Blob{{Center: geom.V2(60, 40), Amp: 10, SigmaX: 8, SigmaY: 8}},
	}
	opts := FRAOptions{K: 1, Rc: 10, GridN: 50}
	p, err := FRA(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(p.Nodes))
	}
	if d := p.Nodes[0].Dist(geom.V2(60, 40)); d > 5 {
		t.Errorf("first refinement at %v, want near the bump (dist %v)", p.Nodes[0], d)
	}
	// A single interpolated peak fans out to the corners and overestimates
	// the field everywhere — one refinement step can legitimately increase
	// δ. With a dozen refinement steps the bump is localized and δ falls
	// below the corner-only baseline.
	corners := Placement{Anchors: p.Anchors, Nodes: []geom.Vec2{geom.V2(1, 1)}}
	evBase, err := Evaluate(f, corners, opts.Rc, 50)
	if err != nil {
		t.Fatal(err)
	}
	opts.K = 12
	opts.DisableForesight = true // isolate the refinement behavior
	p12, err := FRA(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	evRef, err := Evaluate(f, p12, opts.Rc, 50)
	if err != nil {
		t.Fatal(err)
	}
	if evRef.Delta >= evBase.Delta {
		t.Errorf("12 refinement steps did not reduce δ: %v vs baseline %v",
			evRef.Delta, evBase.Delta)
	}
}

func TestFRADisableForesight(t *testing.T) {
	f := testField()
	opts := DefaultFRAOptions(40)
	opts.GridN = 25
	opts.DisableForesight = true
	p, err := FRA(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Relays != 0 {
		t.Errorf("refine-only placed %d relays", p.Relays)
	}
	if p.Refined != 40 {
		t.Errorf("refine-only refined = %d, want 40", p.Refined)
	}
	// The whole point of the ablation: refine-only reaches a lower δ than
	// the constrained algorithm but scatters the network.
	opts.DisableForesight = false
	pc, err := FRA(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	evFree, err := Evaluate(f, p, opts.Rc, 50)
	if err != nil {
		t.Fatal(err)
	}
	evCon, err := Evaluate(f, pc, opts.Rc, 50)
	if err != nil {
		t.Fatal(err)
	}
	if evFree.Delta > evCon.Delta {
		t.Errorf("unconstrained δ %v worse than constrained %v", evFree.Delta, evCon.Delta)
	}
	if evFree.Connected && !evCon.Connected {
		t.Error("expected the constrained run to be the connected one")
	}
}

// TestFRAAllocs bounds FRA's allocations at k = 500 on the Fig. 7 forest
// (Rc = 10, GridN 100, anchored). FRA makes about six allocations per node
// there; a relay oracle that rebuilt its maps on every pick made about 39
// and fails the bound.
func TestFRAAllocs(t *testing.T) {
	const k, perNode = 500, 10
	ref := testField()
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		_, err = FRA(ref, DefaultFRAOptions(k))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FRA k=%d: %.0f allocations", k, allocs)
	if allocs > k*perNode {
		t.Errorf("FRA k=%d made %.0f allocations, want at most %d", k, allocs, k*perNode)
	}
}
