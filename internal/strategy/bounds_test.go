package strategy_test

import (
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/strategy"
)

// TestPlacementsInBounds is the registry-wide region contract: every
// registered placement returns only nodes inside the field's bounds, over
// forest, peaks, terrain and ridge fields, seeds 0–9 and k from sparse to
// dense. A node one ulp outside the region is rejected downstream by the
// δ evaluator's triangulation, so the check is exact.
func TestPlacementsInBounds(t *testing.T) {
	region := geom.Square(100)
	fields := []struct {
		name string
		make func(seed int64) field.Field
	}{
		{"forest", func(seed int64) field.Field {
			cfg := field.DefaultForestConfig()
			cfg.Region = region
			cfg.Seed = seed
			return field.NewForest(cfg).Reference()
		}},
		{"peaks", func(int64) field.Field { return field.Peaks(region) }},
		{"terrain", func(seed int64) field.Field { return field.NewTerrain(region, 5, 0.55, seed+1) }},
		{"ridge", func(int64) field.Field { return field.Ridge(region, region.Min, region.Max, 5, 100.0/8) }},
	}
	for _, name := range strategy.PlacementNames() {
		placer, err := strategy.LookupPlacement(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, fs := range fields {
				fname := fs.name
				for seed := int64(0); seed < 10; seed++ {
					f := fs.make(seed)
					for _, k := range []int{30, 120, 399} {
						p, err := placer.Place(f, strategy.PlaceOptions{K: k, Rc: 20, GridN: 20, Seed: seed})
						if err != nil {
							t.Fatalf("%s seed %d k %d: %v", fname, seed, k, err)
						}
						for i, n := range p.Nodes {
							if !f.Bounds().Contains(n) {
								t.Fatalf("%s seed %d k %d: node %d at (%.17g, %.17g) outside %v", fname, seed, k, i, n.X, n.Y, f.Bounds())
							}
						}
					}
				}
			}
		})
	}
}
