package engine

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
)

// faultWorld builds a k-node grid world over the forest field with the
// given injector (nil for the classic fault-free path).
func faultWorld(t *testing.T, k int, inj *fault.Injector) *Engine {
	t.Helper()
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	opts.Faults = inj
	w, err := New(forest, field.GridLayout(forest.Bounds(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFaultRateZeroBitIdentical is the ISSUE's property test: attaching an
// injector whose config injects nothing must leave every trajectory, every
// per-slot statistic and every δ value bit-identical to a world with no
// injector at all, under the paper's Section 6 settings.
func TestFaultRateZeroBitIdentical(t *testing.T) {
	const k, slots, deltaN = 100, 8, 30
	base := faultWorld(t, k, nil)
	inert := faultWorld(t, k, fault.NewInjector(k, fault.Config{Seed: 9}))
	profiled := faultWorld(t, k, fault.NewInjector(k, fault.Profile(0, slots, 9)))

	for s := 0; s < slots; s++ {
		stB, err := base.Step()
		if err != nil {
			t.Fatal(err)
		}
		stI, err := inert.Step()
		if err != nil {
			t.Fatal(err)
		}
		stP, err := profiled.Step()
		if err != nil {
			t.Fatal(err)
		}
		if stB != stI || stB != stP {
			t.Fatalf("slot %d: stats diverged:\nbase     %+v\ninert    %+v\nprofiled %+v", s, stB, stI, stP)
		}
		pb, pi, pp := base.Positions(), inert.Positions(), profiled.Positions()
		for i := range pb {
			if pb[i] != pi[i] || pb[i] != pp[i] {
				t.Fatalf("slot %d node %d: positions diverged: %v %v %v", s, i, pb[i], pi[i], pp[i])
			}
		}
		if base.Connected() != inert.Connected() {
			t.Fatalf("slot %d: connectivity diverged", s)
		}
	}
	dB, err := base.Delta(deltaN)
	if err != nil {
		t.Fatal(err)
	}
	dI, err := inert.Delta(deltaN)
	if err != nil {
		t.Fatal(err)
	}
	if dB != dI {
		t.Fatalf("δ diverged: %v vs %v", dB, dI)
	}
	if inert.Injector() == nil || inert.Injector().Active() {
		t.Error("inert injector misreported")
	}
}

// TestFaultCrashScheduleFreezesDeadNodes kills specific nodes on a
// deterministic schedule and checks they stop moving, stop counting, and
// stop contributing δ samples, while the run completes without error.
func TestFaultCrashScheduleFreezesDeadNodes(t *testing.T) {
	const k = 25
	cfg := fault.Config{
		Seed: 3,
		Schedule: []fault.Event{
			{Slot: 2, Node: 7},
			{Slot: 2, Node: 12},
			{Slot: 4, Node: 0},
		},
	}
	w := faultWorld(t, k, fault.NewInjector(k, cfg))
	var frozen7 geom.Vec2
	for s := 0; s < 7; s++ {
		if s == 2 {
			frozen7 = w.Positions()[7]
		}
		st, err := w.Step()
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		switch {
		case s < 2 && st.Alive != k:
			t.Fatalf("slot %d: alive %d, want %d", s, st.Alive, k)
		case s >= 2 && s < 4 && st.Alive != k-2:
			t.Fatalf("slot %d: alive %d, want %d", s, st.Alive, k-2)
		case s >= 4 && st.Alive != k-3:
			t.Fatalf("slot %d: alive %d, want %d", s, st.Alive, k-3)
		}
		if s >= 2 && w.Positions()[7] != frozen7 {
			t.Fatalf("slot %d: dead node 7 moved", s)
		}
	}
	if got := w.Injector().Deaths(); got != 3 {
		t.Errorf("deaths = %d, want 3", got)
	}
	mask := w.AliveMask()
	for i, up := range mask {
		want := i != 7 && i != 12 && i != 0
		if up != want {
			t.Errorf("alive[%d] = %v, want %v", i, up, want)
		}
	}
	if _, err := w.Delta(25); err != nil {
		t.Errorf("δ with dead nodes: %v", err)
	}
}

// TestFaultSeededRunsIdentical runs the same seeded 10% crash profile twice
// and demands bit-identical trajectories and statistics — every fault
// schedule must be reproducible from the seed alone.
func TestFaultSeededRunsIdentical(t *testing.T) {
	const k, slots = 49, 10
	run := func() ([]StepStats, []geom.Vec2) {
		w := faultWorld(t, k, fault.NewInjector(k, fault.Profile(0.1, slots, 42)))
		var stats []StepStats
		for s := 0; s < slots; s++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
		return stats, w.Positions()
	}
	s1, p1 := run()
	s2, p2 := run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("slot %d: stats diverged between identical seeds", i)
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("node %d: position diverged between identical seeds", i)
		}
	}
}

// TestFaultLinkLossStillRuns drives a lossy-link heavy profile and checks
// the degraded exchange (stale cache replay) keeps the run finite and
// error-free, with stats that stay well-formed.
func TestFaultLinkLossStillRuns(t *testing.T) {
	const k, slots = 36, 10
	cfg := fault.Config{
		Seed: 11,
		Link: fault.GilbertElliott{PGoodToBad: 0.4, PBadToGood: 0.3, LossGood: 0.1, LossBad: 0.9},
	}
	w := faultWorld(t, k, fault.NewInjector(k, cfg))
	for s := 0; s < slots; s++ {
		st, err := w.Step()
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if math.IsNaN(st.MeanForce) || math.IsNaN(st.MeanDisplacement) {
			t.Fatalf("slot %d: NaN stats under link loss: %+v", s, st)
		}
		if st.Alive != k {
			t.Fatalf("slot %d: link loss killed nodes: alive %d", s, st.Alive)
		}
	}
	d, err := w.Delta(25)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(d) || d <= 0 {
		t.Errorf("δ under link loss = %v", d)
	}
}

// TestFaultInjectorSizeMismatch checks New rejects an injector built
// for the wrong node count.
func TestFaultInjectorSizeMismatch(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	opts.Faults = fault.NewInjector(5, fault.Config{})
	if _, err := New(forest, field.GridLayout(forest.Bounds(), 9), opts); err == nil {
		t.Error("mismatched injector size accepted")
	}
}

// lossyLinks is the fault injector of the lossy-link tests: independent
// per-delivery hello loss, i.e. a Good-only Gilbert–Elliott channel.
func lossyLinks(k int, seed int64) *fault.Injector {
	return fault.NewInjector(k, fault.Config{
		Seed: seed,
		Link: fault.GilbertElliott{LossGood: 0.3},
	})
}

// TestFaultLossyLinksStayConnected: 30% per-delivery hello loss makes
// neighbors invisible for a slot, but the LCM resolution still keeps a
// 100-node swarm connected on every slot.
func TestFaultLossyLinksStayConnected(t *testing.T) {
	const k, slots = 100, 8
	for seed := int64(1); seed <= 3; seed++ {
		lossy := faultWorld(t, k, lossyLinks(k, seed))
		if !lossy.Connected() {
			t.Fatal("initial grid not connected")
		}
		for s := 0; s < slots; s++ {
			if _, err := lossy.Step(); err != nil {
				t.Fatalf("seed %d slot %d: %v", seed, s, err)
			}
			if !lossy.Connected() {
				t.Fatalf("seed %d: disconnected at slot %d under lossy links", seed, s+1)
			}
		}
	}
}

// TestFaultLossyLinksDiverge: the same loss must change the trajectory
// against a lossless run — otherwise the link channel would be dead code.
func TestFaultLossyLinksDiverge(t *testing.T) {
	const k, slots = 100, 8
	for seed := int64(1); seed <= 3; seed++ {
		lossy := faultWorld(t, k, lossyLinks(k, seed))
		lossless := faultWorld(t, k, nil)
		for s := 0; s < slots; s++ {
			if _, err := lossy.Step(); err != nil {
				t.Fatalf("seed %d slot %d: %v", seed, s, err)
			}
			if _, err := lossless.Step(); err != nil {
				t.Fatalf("seed %d slot %d lossless: %v", seed, s, err)
			}
		}
		same := 0
		pl, pc := lossy.Positions(), lossless.Positions()
		for i := range pl {
			if pl[i] == pc[i] {
				same++
			}
		}
		if same == len(pl) {
			t.Errorf("seed %d: lossy and lossless runs identical; link loss not effective", seed)
		}
	}
}
