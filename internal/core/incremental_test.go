package core_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/surface"
)

// TestFRAIncrementalMatchesFullUpdates proves the dirty-region refresh is
// exact: FRA with incremental local-error updates must pick the identical
// node sequence as FRA recomputing the whole grid after every insertion.
func TestFRAIncrementalMatchesFullUpdates(t *testing.T) {
	f := field.NewForest(field.DefaultForestConfig()).Reference()
	for _, k := range []int{10, 40, 120} {
		opts := core.FRAOptions{K: k, Rc: 10, GridN: 60}
		inc, err := core.FRA(f, opts)
		if err != nil {
			t.Fatalf("k=%d incremental: %v", k, err)
		}
		full, err := core.FRA(f, core.WithFullGridUpdates(opts))
		if err != nil {
			t.Fatalf("k=%d full: %v", k, err)
		}
		if len(inc.Nodes) != len(full.Nodes) {
			t.Fatalf("k=%d: %d vs %d nodes", k, len(inc.Nodes), len(full.Nodes))
		}
		for i := range inc.Nodes {
			if inc.Nodes[i] != full.Nodes[i] {
				t.Fatalf("k=%d node %d: incremental %v != full %v",
					k, i, inc.Nodes[i], full.Nodes[i])
			}
		}
		if inc.Refined != full.Refined || inc.Relays != full.Relays {
			t.Fatalf("k=%d: refined/relays %d/%d vs %d/%d",
				k, inc.Refined, inc.Relays, full.Refined, full.Relays)
		}
	}
}

// TestFRADeterministicAcrossProcs: FRA's internal parallel lattice updates
// must not perturb the chosen placement at any GOMAXPROCS.
func TestFRADeterministicAcrossProcs(t *testing.T) {
	f := field.NewForest(field.DefaultForestConfig()).Reference()
	opts := core.FRAOptions{K: 60, Rc: 10, GridN: 60}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var base core.Placement
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		p, err := core.FRA(f, opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if i == 0 {
			base = p
			continue
		}
		if len(p.Nodes) != len(base.Nodes) {
			t.Fatalf("GOMAXPROCS=%d: %d vs %d nodes", procs, len(p.Nodes), len(base.Nodes))
		}
		for j := range p.Nodes {
			if p.Nodes[j] != base.Nodes[j] {
				t.Fatalf("GOMAXPROCS=%d node %d: %v != %v", procs, j, p.Nodes[j], base.Nodes[j])
			}
		}
	}
}

// TestFRAIncrementalMatchesFullUpdatesSmallRegion repeats the equality on
// inline surfaces a hundredth and a thousandth of a unit wide, where the
// triangulation's absolute predicate tolerances leave zero-area
// triangles: FRA must notice them and refresh the whole lattice.
func TestFRAIncrementalMatchesFullUpdatesSmallRegion(t *testing.T) {
	for _, s := range []float64{1e-4, 1e-5} {
		for seed := int64(1); seed <= 6; seed++ {
			region := geom.Rect{Max: geom.V2(100*s, 70*s)}
			rng := rand.New(rand.NewSource(seed))
			var samples []field.Sample
			for _, c := range region.Corners() {
				samples = append(samples, field.Sample{Pos: c, Z: rng.Float64()})
			}
			for i := 0; i < 60; i++ {
				p := geom.V2(rng.Float64()*region.Width(), rng.Float64()*region.Height())
				samples = append(samples, field.Sample{Pos: p, Z: rng.NormFloat64()})
			}
			f, err := surface.FromSamples(region, samples)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.FRAOptions{K: 80, Rc: 10 * s, GridN: 50}
			inc, err := core.FRA(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			full, err := core.FRA(f, core.WithFullGridUpdates(opts))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(inc.Nodes, full.Nodes) || inc.Refined != full.Refined || inc.Relays != full.Relays {
				t.Errorf("scale %g seed %d: incremental and full placements differ", s, seed)
			}
		}
	}
}
