// Package benchsuite holds the benchmark scenario table that cmd/bench
// records and gates and BenchmarkScenarios runs under go test, and the
// host stamp that names the machine a recorded figure came from.
package benchsuite

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// Scenario is one row of the benchmark table.
type Scenario struct {
	// Name keys the row in reports and names its sub-benchmark.
	Name string
	// Iters is the exact iteration count of a full cmd/bench run. A fixed
	// count keeps allocs/op comparable between runs: the one-time warm-up
	// allocations are always spread over the same N.
	Iters int
	// Gated rows fail cmd/bench -compare when they regress.
	Gated bool
	// Bench is the benchmark body.
	Bench func(*testing.B)
}

// The step_large_n swarm is largeN nodes uniform over the forest, above
// graph.NewUnitDisk's 256-node scan threshold so the spatial-index path
// is the one measured.
const largeN, largeNSeed = 2000, 17

// Scenarios returns the table: FRA at three node budgets and Lloyd at
// k = 500 (the Fig. 7 placement and its coverage competitor), the
// 2000-node engine step with and without a live metrics registry (the
// DESIGN §9 instrumentation-overhead pair), one OSTD slot over the forest
// and one over the splitting plume, and the 100k-node slot that keeps
// steady-state stepping allocation-free at scale.
func Scenarios() []Scenario {
	forest := field.NewForest(field.DefaultForestConfig())
	ref := forest.Reference()
	large := field.RandomPositions(forest.Bounds(), largeN, largeNSeed)
	metered := engine.DefaultOptions()
	metered.Metrics = obs.NewRegistry()
	plume := field.PlumeScenario(geom.Square(100), 2, 2, 0.6, 0.8, 0.01, 15)

	// The 100k-node slot runs on a 1 km² forest at density-scaled sensing
	// parameters: Rs = 3 keeps the per-node sample disc and candidate
	// count proportionate to the ~3.2 m grid pitch, and Rc = 8 keeps ~19
	// unit-disk neighbors.
	bigCfg := field.DefaultForestConfig()
	bigCfg.Region = geom.Square(1000)
	big := field.NewForest(bigCfg)
	bigOpts := engine.DefaultOptions()
	bigOpts.Config.Region = big.Bounds()
	bigOpts.Config.Rs = 3
	bigOpts.Config.Rc = 8

	return []Scenario{
		{"fra_k100", 30, false, place(ref, "fra", 100)},
		{"fra_k500", 15, true, place(ref, "fra", 500)},
		{"fra_k2000", 3, false, place(ref, "fra", 2000)},
		{"lloyd_k500", 7, true, place(ref, "lloyd", 500)},
		{"step_large_n", 20, true, step(forest, large, engine.DefaultOptions())},
		{"step_large_n_metrics", 20, false, step(forest, large, metered)},
		{"ostd_round", 50, false, step(forest, field.GridLayout(forest.Bounds(), 100), engine.DefaultOptions())},
		{"plume_round", 100, true, step(plume, field.GridLayout(plume.Bounds(), 100), engine.DefaultOptions())},
		{"step_100k", 2, false, step(big, field.GridLayout(big.Bounds(), 100000), bigOpts)},
	}
}

// place measures one full run of a registry placement strategy at node
// budget k. The "fra" adapter forwards to core.FRA unchanged.
func place(ref field.Field, name string, k int) func(*testing.B) {
	return func(b *testing.B) {
		placer, err := strategy.LookupPlacement(name)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var p core.Placement
		for i := 0; i < b.N; i++ {
			if p, err = placer.Place(ref, strategy.PlaceOptions{K: k, Rc: 10, GridN: 100, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(p.Refined), "refined")
		b.ReportMetric(float64(p.Relays), "relays")
	}
}

// step measures one simulation slot from the given initial layout; a
// non-nil opts.Metrics runs it instrumented. The field is time-varying,
// so successive iterations step successive slots.
func step(dyn field.DynField, init []geom.Vec2, opts engine.Options) func(*testing.B) {
	return func(b *testing.B) {
		w, err := engine.New(dyn, init, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Host identifies the machine a measurement ran on. Two reports compare
// only when every field is equal.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// StampHost describes the running machine. Its CPU model is the first
// "model name" in /proc/cpuinfo, or "unknown" where there is none.
func StampHost() Host {
	h := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH,
		CPUModel: "unknown", GoVersion: runtime.Version()}
	b, _ := os.ReadFile("/proc/cpuinfo") // an unreadable file leaves the model unknown
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}
