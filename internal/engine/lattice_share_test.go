package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
)

// latticeScenes are the fields of the shared-lattice bit-identity test:
// the default forest, a drifting plume that splits mid-run and a trace
// replay of a recorded plume.
func latticeScenes(t *testing.T) map[string]field.DynField {
	t.Helper()
	src := field.PlumeScenario(geom.Square(100), 4, 2, 0.5, 0.7, 0, 6)
	records := field.GenerateTrace(src, 6, []float64{0, 3, 6, 9, 12}, field.NewSampler(0, 9))
	rp, err := field.NewReplay(src.Bounds(), records)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]field.DynField{
		"forest": field.NewForest(field.DefaultForestConfig()),
		"plume":  field.PlumeScenario(geom.Square(100), 3, 2, 0.6, 0.8, 0.01, 5),
		"replay": rp,
	}
}

// runShared steps a fresh engine with the shared lattice forced on or off
// and records its stats, its position bits and whether any slot sensed
// through the shared lattice.
func runShared(t *testing.T, dyn field.DynField, pos []geom.Vec2, opts func() Options, slots int, on bool) ([]StepStats, []uint64, bool) {
	t.Helper()
	defer forceLatticeShare(on)()
	e, err := New(dyn, pos, opts())
	if err != nil {
		t.Fatal(err)
	}
	stats, bits := runRecorded(t, e, slots)
	return stats, bits, e.latticeShared()
}

// TestLatticeShareBitIdentity pins the shared sensing lattice to the
// unshared slot, bit for bit: forced on and forced off must agree on every
// statistic and coordinate over forest, plume and replay fields, at one
// and four workers, with faults off and on and with noiseless and noisy
// sensing. The swarm is dense and touches the region's corner, so discs
// overlap and fit neighbourhoods cross the border. The lattice must be in
// use exactly on forced-on noiseless runs. A last subtest runs the
// 2000-node forest under the derived enable rule.
func TestLatticeShareBitIdentity(t *testing.T) {
	const k, slots = 100, 12
	pos := field.GridLayout(geom.Square(45), k)
	for name, dyn := range latticeScenes(t) {
		for _, procs := range []int{1, 4} {
			for _, rate := range []float64{0, 0.2} {
				for _, noise := range []float64{0, 0.05} {
					label := fmt.Sprintf("%s/procs=%d/faults=%g/noise=%g", name, procs, rate, noise)
					t.Run(label, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						opts := func() Options {
							o := Options{Config: mobile.DefaultConfig(), NoiseStd: noise, Seed: 5}
							if rate > 0 {
								o.Faults = fault.NewInjector(k, fault.Profile(rate, slots, 9))
							}
							return o
						}
						offStats, offBits, offShared := runShared(t, dyn, pos, opts, slots, false)
						onStats, onBits, onShared := runShared(t, dyn, pos, opts, slots, true)
						compareRuns(t, label, offStats, onStats, offBits, onBits)
						if offShared {
							t.Error("lattice in use with sharing forced off")
						}
						if noiseless := noise == 0; noiseless != onShared {
							t.Errorf("lattice in use: %v, noiseless run: %v", onShared, noiseless)
						}
					})
				}
			}
		}
	}
	t.Run("forest2000", testLatticeShareLargeSwarm)
}

// testLatticeShareLargeSwarm checks the derived enable rule on the
// 2000-node forest: sharing switches on by itself, matches the unshared
// slot bit for bit, and stays on under faults but off on a noisy slot.
func testLatticeShareLargeSwarm(t *testing.T) {
	const n, slots = 2000, 2
	forest := field.NewForest(field.DefaultForestConfig())
	pos := field.RandomPositions(forest.Bounds(), n, 17)
	clean := func() Options { return Options{Config: mobile.DefaultConfig()} }

	offStats, offBits, _ := runShared(t, forest, pos, clean, slots, false)
	e, err := New(forest, pos, clean())
	if err != nil {
		t.Fatal(err)
	}
	stats, bits := runRecorded(t, e, slots)
	compareRuns(t, "derived rule", offStats, stats, offBits, bits)
	if !e.latticeShared() {
		t.Error("lattice not in use on the clean 2000-node forest")
	}

	for _, tc := range []struct {
		name   string
		opts   func() Options
		shared bool
	}{
		{"faulty", func() Options {
			return Options{Config: mobile.DefaultConfig(), Faults: fault.NewInjector(n, fault.Profile(0.2, slots, 9))}
		}, true},
		{"noisy", func() Options { return Options{Config: mobile.DefaultConfig(), NoiseStd: 0.05, Seed: 5} }, false},
	} {
		e, err := New(forest, pos, tc.opts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if got := e.latticeShared(); got != tc.shared {
			t.Errorf("%s slot: lattice in use %v, want %v", tc.name, got, tc.shared)
		}
	}
}
