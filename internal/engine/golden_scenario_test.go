package engine

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/strategy"
)

// scenarioGoldenPath pins the dynamic-scenario trajectories: a drifting
// splitting plume under CMA, a trace replay of a recorded plume, and a
// tour-constrained patrol. It complements golden_step.json, which pins
// the original forest scenarios; regenerate with
//
//	go test ./internal/engine -run TestGoldenScenarios -update
//
// only under the re-baseline rule of updateGolden.
const scenarioGoldenPath = "testdata/golden_scenarios.json"

var scenarioGoldenNames = []string{"plume", "replay", "tour"}

// scenarioWorld builds the world for a named dynamic scenario. As with
// goldenWorld, the construction is part of the golden contract.
func scenarioWorld(t *testing.T, name string) (*Engine, int) {
	t.Helper()
	opts := DefaultOptions()
	switch name {
	case "plume":
		// Two drifting sources, one splitting mid-run, under the default
		// CMA controller.
		dyn := field.PlumeScenario(geom.Square(100), 3, 2, 0.6, 0.8, 0.01, 5)
		w, err := New(dyn, field.GridLayout(dyn.Bounds(), 49), opts)
		if err != nil {
			t.Fatal(err)
		}
		return w, 8
	case "replay":
		// Record the same plume family on a coarse station grid, then run
		// the swarm against the replayed trace instead of the analytic
		// field — the deployment-data path.
		src := field.PlumeScenario(geom.Square(100), 4, 2, 0.5, 0.7, 0, 6)
		records := field.GenerateTrace(src, 6, []float64{0, 3, 6, 9, 12}, field.NewSampler(0, 9))
		rp, err := field.NewReplay(src.Bounds(), records)
		if err != nil {
			t.Fatal(err)
		}
		w, err := New(rp, field.GridLayout(rp.Bounds(), 49), opts)
		if err != nil {
			t.Fatal(err)
		}
		return w, 8
	case "tour":
		// The budget-constrained patrol controller from the strategy
		// registry over a drifting plume.
		dyn := field.PlumeScenario(geom.Square(100), 5, 2, 0.4, 0.8, 0, 4)
		opts.NewController = strategy.MovementFor("tour").NewController
		w, err := New(dyn, field.GridLayout(dyn.Bounds(), 49), opts)
		if err != nil {
			t.Fatal(err)
		}
		return w, 10
	default:
		t.Fatalf("unknown scenario %q", name)
		return nil, 0
	}
}

func recordScenario(t *testing.T, name string) goldenRun {
	t.Helper()
	w, slots := scenarioWorld(t, name)
	return recordRun(t, name, w, slots)
}

func verifyScenarioGolden(t *testing.T) {
	t.Helper()
	buf, err := os.ReadFile(scenarioGoldenPath)
	if err != nil {
		t.Fatalf("read scenario golden file (regenerate with -update): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(scenarioGoldenNames) {
		t.Fatalf("scenario golden file has %d scenarios, want %d", len(want), len(scenarioGoldenNames))
	}
	for _, g := range want {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			compareRun(t, recordScenario(t, g.Name), g)
		})
	}
}

// TestGoldenScenarios pins the dynamic scenarios bit for bit: every
// position coordinate, every statistic, every connectivity verdict, and
// the final δ of the plume, trace-replay and tour trajectories.
func TestGoldenScenarios(t *testing.T) {
	if *updateGolden {
		var runs []goldenRun
		for _, name := range scenarioGoldenNames {
			runs = append(runs, recordScenario(t, name))
		}
		buf, err := json.MarshalIndent(runs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d scenarios", scenarioGoldenPath, len(runs))
		return
	}
	verifyScenarioGolden(t)
}

// TestGoldenScenariosSingleProc replays the scenario file with
// GOMAXPROCS pinned to 1: the engine's parallel stages must produce the
// same bits at any worker count, so serial execution reproduces the
// recorded trajectories exactly.
func TestGoldenScenariosSingleProc(t *testing.T) {
	if *updateGolden {
		t.Skip("-update regenerates via TestGoldenScenarios")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	verifyScenarioGolden(t)
}
