package sweep

import (
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/field"
)

// TestFig7Parity pins the Fig. 7 contract between the two front doors to
// the δ-versus-k cell: a single-field, single-rc, fault-free sweep
// projected through DeltaVsKRows must equal eval.DeltaVsK field by field,
// with bit-identical δ, for every placement strategy.
func TestFig7Parity(t *testing.T) {
	ks := []int{10, 50, 100}
	for _, name := range []string{"fra", "lloyd", "cwd"} {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(Spec{
				Name:        "fig7-parity",
				Fields:      []FieldSpec{{Kind: "forest"}},
				Ks:          ks,
				Rcs:         []float64{10},
				Strategies:  []string{name},
				GridN:       40,
				DeltaN:      40,
				RandomDraws: 3,
				Seeds:       []int64{1},
			}, RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := DeltaVsKRows(rep)
			want, err := eval.DeltaVsK(field.NewForest(field.DefaultForestConfig()).Reference(), ks,
				eval.DeltaVsKOptions{Rc: 10, GridN: 40, DeltaN: 40, RandomDraws: 3, Seed: 1, Strategy: name})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d sweep rows, %d DeltaVsK rows", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.K != w.K || g.Refined != w.Refined || g.Relays != w.Relays || g.Connected != w.Connected ||
					math.Float64bits(g.FRA) != math.Float64bits(w.FRA) ||
					math.Float64bits(g.Random) != math.Float64bits(w.Random) {
					t.Errorf("k=%d: sweep %+v, DeltaVsK %+v", w.K, g, w)
				}
			}
		})
	}
}
