package engine

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/mobile"
)

// updateGolden regenerates the golden trajectory files from the current
// engine. Run it only in a change that declares a re-baseline and records
// the old → new δ of every golden run in EXPERIMENTS.md: the whole point of
// the files is that every other change reproduces them bit for bit.
var updateGolden = flag.Bool("update", false, "rewrite golden step testdata from the current engine")

const goldenPath = "testdata/golden_step.json"

// goldenScenarios are the recorded trajectories: a fault-free run, a
// fault.Profile run, and an explicitly scheduled fault run.
var goldenScenarios = []string{"clean", "profile", "schedule"}

// goldenFactory, when non-nil, overrides the worlds' controller factory.
// It is the hook TestGoldenBitIdentityViaStrategy uses to prove that
// controllers resolved through the strategy registry reproduce the
// recorded trajectories bit for bit; nil keeps the default CMA path.
var goldenFactory mobile.ControllerFactory

// goldenSlot is one recorded simulation slot: every StepStats field (floats
// as IEEE-754 bit patterns, so the comparison is exact), the connectivity
// bit, and the bit patterns of all node coordinates after the slot.
type goldenSlot struct {
	T         uint64   `json:"t"`
	Moved     int      `json:"moved"`
	Followed  int      `json:"followed"`
	MeanForce uint64   `json:"mean_force"`
	MeanDisp  uint64   `json:"mean_disp"`
	Energy    uint64   `json:"energy"`
	Alive     int      `json:"alive"`
	Connected bool     `json:"connected"`
	Pos       []uint64 `json:"pos"` // x0, y0, x1, y1, ...
}

// goldenRun is one scenario's full recorded trajectory plus the final δ.
type goldenRun struct {
	Name   string       `json:"name"`
	Slots  []goldenSlot `json:"slots"`
	DeltaN int          `json:"delta_n"`
	Delta  uint64       `json:"delta"`
}

// goldenWorld builds the world for a named scenario. The construction is
// part of the golden contract: scenarios must keep building identical
// worlds across refactors.
func goldenWorld(t *testing.T, name string) (*Engine, int) {
	t.Helper()
	forest := field.NewForest(field.DefaultForestConfig())
	opts := DefaultOptions()
	opts.NewController = goldenFactory // nil means the default CMA factory
	var k, slots int
	switch name {
	case "clean":
		// The paper's Section 6 OSTD run: no faults at all.
		k, slots = 100, 8
	case "profile":
		// The one-knob fault profile: crashes, bursty link loss and
		// sensing faults all active, with the robust curvature fit.
		k, slots = 100, 8
		opts.Config.RobustFit = true
		opts.Faults = fault.NewInjector(k, fault.Profile(0.3, slots, 42))
	case "schedule":
		// Deterministic kills and a revive, link loss and sensing
		// faults, all explicitly configured.
		k, slots = 49, 10
		opts.Faults = fault.NewInjector(k, fault.Config{
			Seed: 5,
			Schedule: []fault.Event{
				{Slot: 2, Node: 7},
				{Slot: 3, Node: 12},
				{Slot: 6, Node: 7, Up: true},
			},
			Link:             fault.GilbertElliott{PGoodToBad: 0.3, PBadToGood: 0.4, LossGood: 0.05, LossBad: 0.7},
			SenseDropProb:    0.1,
			SenseOutlierProb: 0.05,
			SenseOutlierStd:  3,
		})
	default:
		t.Fatalf("unknown golden scenario %q", name)
	}
	w, err := New(forest, field.GridLayout(forest.Bounds(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, slots
}

// recordGolden drives a scenario and records its trajectory.
func recordGolden(t *testing.T, name string) goldenRun {
	t.Helper()
	w, slots := goldenWorld(t, name)
	return recordRun(t, name, w, slots)
}

// recordRun drives an already-built world for slots steps and records
// its full bit-level trajectory plus the final δ.
func recordRun(t *testing.T, name string, w *Engine, slots int) goldenRun {
	t.Helper()
	run := goldenRun{Name: name, DeltaN: 30}
	for s := 0; s < slots; s++ {
		st, err := w.Step()
		if err != nil {
			t.Fatalf("%s slot %d: %v", name, s, err)
		}
		slot := goldenSlot{
			T:         math.Float64bits(st.T),
			Moved:     st.Moved,
			Followed:  st.Followed,
			MeanForce: math.Float64bits(st.MeanForce),
			MeanDisp:  math.Float64bits(st.MeanDisplacement),
			Energy:    math.Float64bits(st.EnergySpent),
			Alive:     st.Alive,
			Connected: w.Connected(),
		}
		for _, p := range w.Positions() {
			slot.Pos = append(slot.Pos, math.Float64bits(p.X), math.Float64bits(p.Y))
		}
		run.Slots = append(run.Slots, slot)
	}
	d, err := w.Delta(run.DeltaN)
	if err != nil {
		t.Fatalf("%s final δ: %v", name, err)
	}
	run.Delta = math.Float64bits(d)
	return run
}

// TestGoldenBitIdentity is the cross-engine golden test demanded by the
// staged-engine refactor (the successor of TestFaultRateZeroBitIdentical's
// property): the current engine must reproduce the recorded trajectories
// exactly — every position bit, every statistic, every connectivity
// verdict — for a fault-free run, a fault.Profile run, and an explicitly
// scheduled fault run. Regenerate with
//
//	go test ./internal/engine -run TestGoldenBitIdentity -update
//
// only under the re-baseline rule of updateGolden.
func TestGoldenBitIdentity(t *testing.T) {
	if *updateGolden {
		var runs []goldenRun
		for _, name := range goldenScenarios {
			runs = append(runs, recordGolden(t, name))
		}
		buf, err := json.MarshalIndent(runs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d scenarios", goldenPath, len(runs))
		return
	}
	verifyGolden(t)
}

// verifyGolden replays every recorded scenario against the current
// engine configuration (including any goldenFactory override) and fails
// on the first diverging bit.
func verifyGolden(t *testing.T) {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldenScenarios) {
		t.Fatalf("golden file has %d scenarios, want %d", len(want), len(goldenScenarios))
	}
	for _, g := range want {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			compareRun(t, recordGolden(t, g.Name), g)
		})
	}
}

// compareRun fails on the first bit by which got diverges from the
// recorded golden run.
func compareRun(t *testing.T, got, g goldenRun) {
	t.Helper()
	if len(got.Slots) != len(g.Slots) {
		t.Fatalf("slot count %d, want %d", len(got.Slots), len(g.Slots))
	}
	for s := range g.Slots {
		ws, gs := g.Slots[s], got.Slots[s]
		if gs.T != ws.T || gs.Moved != ws.Moved || gs.Followed != ws.Followed ||
			gs.MeanForce != ws.MeanForce || gs.MeanDisp != ws.MeanDisp ||
			gs.Energy != ws.Energy || gs.Alive != ws.Alive {
			t.Fatalf("slot %d: stats diverged from golden:\ngot  %+v\nwant %+v", s, gs, ws)
		}
		if gs.Connected != ws.Connected {
			t.Fatalf("slot %d: connectivity %v, golden %v", s, gs.Connected, ws.Connected)
		}
		if len(gs.Pos) != len(ws.Pos) {
			t.Fatalf("slot %d: %d coords, golden %d", s, len(gs.Pos), len(ws.Pos))
		}
		for i := range ws.Pos {
			if gs.Pos[i] != ws.Pos[i] {
				t.Fatalf("slot %d node %d %s: coordinate bits %016x, golden %016x",
					s, i/2, [2]string{"x", "y"}[i%2],
					gs.Pos[i], ws.Pos[i])
			}
		}
	}
	if got.Delta != g.Delta {
		t.Fatalf("δ bits %016x (%v), golden %016x (%v)",
			got.Delta, math.Float64frombits(got.Delta),
			g.Delta, math.Float64frombits(g.Delta))
	}
}
