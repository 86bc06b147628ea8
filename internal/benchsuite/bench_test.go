package benchsuite

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/field"
)

// BenchmarkScenarios runs every table row as a sub-benchmark, e.g.
//
//	go test -run XXX -bench 'BenchmarkScenarios/step_large_n$' -benchtime 20x ./internal/benchsuite
func BenchmarkScenarios(b *testing.B) {
	for _, sc := range Scenarios() {
		b.Run(sc.Name, sc.Bench)
	}
}

func TestScenarioTable(t *testing.T) {
	seen := map[string]bool{}
	var gated []string
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Iters < 1 {
			t.Errorf("%s: Iters = %d, want >= 1", sc.Name, sc.Iters)
		}
		if sc.Bench == nil {
			t.Errorf("%s: no benchmark body", sc.Name)
		}
		if sc.Gated {
			gated = append(gated, sc.Name)
		}
	}
	sort.Strings(gated)
	if want := []string{"fra_k500", "lloyd_k500", "plume_round", "step_large_n"}; !slices.Equal(gated, want) {
		t.Errorf("gated rows %v, want %v", gated, want)
	}

	// step_large_n must keep timing the swarm earlier reports timed: the
	// uniform seed-17 layout drawn x then y from one math/rand stream.
	bb := field.NewForest(field.DefaultForestConfig()).Bounds()
	got := field.RandomPositions(bb, largeN, largeNSeed)
	rng := rand.New(rand.NewSource(17))
	if len(got) != 2000 {
		t.Fatalf("step_large_n has %d nodes, want 2000", len(got))
	}
	for i, p := range got {
		x := bb.Min.X + rng.Float64()*bb.Width()
		y := bb.Min.Y + rng.Float64()*bb.Height()
		if math.Float64bits(p.X) != math.Float64bits(x) || math.Float64bits(p.Y) != math.Float64bits(y) {
			t.Fatalf("node %d at %v, want (%v, %v)", i, p, x, y)
		}
	}
}
