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
// and records its stats, position bits and memo hits.
func runShared(t *testing.T, dyn field.DynField, pos []geom.Vec2, opts func() Options, slots int, on bool) ([]StepStats, []uint64, int64) {
	t.Helper()
	defer forceLatticeShare(on)()
	e, err := New(dyn, pos, opts())
	if err != nil {
		t.Fatal(err)
	}
	stats, bits := runRecorded(t, e, slots)
	return stats, bits, e.memoHits()
}

// TestLatticeShareBitIdentity pins the shared sensing lattice and the
// peak-fit memo to the unshared slot, bit for bit: forced on and forced
// off must agree on every statistic and coordinate over forest, plume
// and replay fields, at one and four workers, with faults off and on and
// with noiseless and noisy sensing. The swarm is dense and touches the
// region's corner, so discs overlap and balls cross the border. The
// memo must serve fits only on clean, noiseless runs. A last subtest runs
// the 2000-node forest under the derived enable rule.
func TestLatticeShareBitIdentity(t *testing.T) {
	const k, slots = 100, 12
	pos := field.GridLayout(geom.NewRect(geom.V2(0, 0), geom.V2(45, 45)), k)
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
						offStats, offBits, offHits := runShared(t, dyn, pos, opts, slots, false)
						onStats, onBits, onHits := runShared(t, dyn, pos, opts, slots, true)
						compareRuns(t, label, offStats, onStats, offBits, onBits)
						if offHits != 0 {
							t.Errorf("memo served %d fits with sharing off", offHits)
						}
						if clean := rate == 0 && noise == 0; clean != (onHits > 0) {
							t.Errorf("memo served %d fits (clean run: %v)", onHits, clean)
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
// slot bit for bit, and the memo serves fits on clean slots but none on a
// faulty or a noisy one.
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
	if e.memoHits() == 0 {
		t.Error("memo served no fits on the clean 2000-node forest")
	}

	for name, opts := range map[string]func() Options{
		"faulty": func() Options {
			return Options{Config: mobile.DefaultConfig(), Faults: fault.NewInjector(n, fault.Profile(0.2, slots, 9))}
		},
		"noisy": func() Options { return Options{Config: mobile.DefaultConfig(), NoiseStd: 0.05, Seed: 5} },
	} {
		e, err := New(forest, pos, opts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if h := e.memoHits(); h != 0 {
			t.Errorf("%s slot: memo served %d fits, want 0", name, h)
		}
	}
}
