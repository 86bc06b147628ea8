package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/surface"
	"repro/internal/sweep"
)

// raceDetector reports a -race build (race_test.go).
var raceDetector bool

// namedField is a test field and its name.
type namedField struct {
	name string
	f    field.Field
}

// sharingFields returns the four sweep spec fields, a zero field, which
// Delaunay interpolation reproduces exactly, and a planar field, which it
// reproduces up to rounding.
func sharingFields(t *testing.T) []namedField {
	t.Helper()
	var fs []namedField
	for _, kind := range []string{"forest", "peaks", "terrain", "ridge"} {
		d, err := sweep.FieldSpec{Kind: kind}.Build()
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, namedField{kind, field.Slice(d, 0)})
	}
	region := geom.Square(100)
	return append(fs,
		namedField{"constant", field.Constant(region, 0)},
		namedField{"planar", field.Plane(region, 0.3, -0.7, 2)})
}

// boundaryKs returns 1, the budgets at which the foresight trigger and the
// affordability check flip at a few steps of ref's budget-free run (probed
// to at most probe steps), and, when the run ends within them, a budget
// past its end; shuffled by rng. Budgets above maxK, which only spend
// more relays, are left out.
func boundaryKs(ref *surface.Reference, gridN int, rc float64, probe int, rng *rand.Rand) []int {
	const maxK = 1500
	steps, ended := core.TrajectorySteps(ref, gridN, rc, probe)
	ks := []int{1}
	if n := len(steps); n > 0 {
		for _, i := range []int{1, 2, n / 2, n - 1} {
			if i >= n {
				continue
			}
			s := steps[i]
			// The trigger fires at step i for k ≤ picks + before; the
			// node is unaffordable for k ≤ picks + with.
			for _, k := range []int{s.Picks + s.Before, s.Picks + s.Before + 1, s.Picks + s.With, s.Picks + s.With + 1} {
				if k >= 1 && k <= maxK {
					ks = append(ks, k)
				}
			}
		}
		if ended {
			ks = append(ks, steps[n-1].Picks+5)
		}
	}
	slices.Sort(ks)
	ks = slices.Compact(ks)
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// samePlacement reports how got differs from want, bit for bit, or "".
func samePlacement(got, want core.Placement) string {
	sameBits := func(a, b []geom.Vec2) bool {
		return slices.EqualFunc(a, b, func(p, q geom.Vec2) bool {
			return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
		})
	}
	switch {
	case !sameBits(got.Nodes, want.Nodes):
		return fmt.Sprintf("nodes differ (%d vs %d)", len(got.Nodes), len(want.Nodes))
	case got.Refined != want.Refined || got.Relays != want.Relays:
		return fmt.Sprintf("refined/relays %d/%d vs %d/%d", got.Refined, got.Relays, want.Refined, want.Relays)
	case !sameBits(got.Anchors, want.Anchors):
		return "anchors differ"
	}
	return ""
}

// checkPlacements places every k on ref and on the plain field f and
// fails on the first difference.
func checkPlacements(t *testing.T, label string, f field.Field, ref *surface.Reference, gridN int, rc float64, ks []int) {
	t.Helper()
	for _, k := range ks {
		opts := core.FRAOptions{K: k, Rc: rc, GridN: gridN}
		want, err := core.FRA(f, opts)
		if err != nil {
			t.Fatalf("%s k=%d plain: %v", label, k, err)
		}
		got, err := core.FRA(ref, opts)
		if err != nil {
			t.Fatalf("%s k=%d shared: %v", label, k, err)
		}
		if d := samePlacement(got, want); d != "" {
			t.Fatalf("%s k=%d: shared placement differs from plain: %s", label, k, d)
		}
	}
}

// TestFRASharedTrajectoryBitIdentical places budgets at the trajectory's
// trigger and affordability boundaries, in shuffled order, on one shared
// Reference per field, lattice size and radius, and demands the plain
// field's placement bit for bit. Under the race detector, which slows it
// about thirtyfold, it covers two lattice sizes at one radius;
// TestFRASharedConcurrent is the race check.
func TestFRASharedTrajectoryBitIdentical(t *testing.T) {
	gridNs, rcs := []int{1, 2, 5, 30, 100}, []float64{0.5, 5, 10, 20, 1e9}
	if raceDetector {
		gridNs, rcs = []int{5, 30}, []float64{10}
	}
	rng := rand.New(rand.NewSource(36))
	for _, nf := range sharingFields(t) {
		for _, gridN := range gridNs {
			probe := 1200 // past the end of every run on a 31×31 lattice
			if gridN == 100 {
				probe = 100
			}
			for _, rc := range rcs {
				ref := surface.NewReference(nf.f)
				ks := boundaryKs(ref, gridN, rc, probe, rng)
				checkPlacements(t, fmt.Sprintf("%s gridN=%d rc=%g", nf.name, gridN, rc), nf.f, ref, gridN, rc, ks)
			}
		}
	}
}

// TestFRASharedCounters places one k list on a Reference with and without
// a registry: the placements match the plain field's, the refined and
// relay counters add up to the nodes placed, and the picks taken from the
// trajectory are among the refined ones.
func TestFRASharedCounters(t *testing.T) {
	f := sharingFields(t)[0].f
	ref := surface.NewReference(f)
	reg := obs.NewRegistry()
	nodes := 0
	for _, k := range []int{90, 30, 250, 60, 120, 45} {
		opts := core.FRAOptions{K: k, Rc: 10, GridN: 100}
		want, err := core.FRA(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := core.FRA(ref, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Metrics = reg
		observed, err := core.FRA(ref, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := samePlacement(bare, want); d != "" {
			t.Fatalf("k=%d without registry: %s", k, d)
		}
		if d := samePlacement(observed, want); d != "" {
			t.Fatalf("k=%d with registry: %s", k, d)
		}
		nodes += len(observed.Nodes)
	}
	refined := reg.Counter("fra_refined_total").Value()
	relays := reg.Counter("fra_relays_total").Value()
	prefix := reg.Counter("fra_prefix_picks_total").Value()
	if refined+relays != int64(nodes) {
		t.Errorf("refined %d + relays %d != %d nodes placed", refined, relays, nodes)
	}
	if prefix == 0 || prefix > refined {
		t.Errorf("prefix picks %d, want within (0, refined %d]", prefix, refined)
	}
}

// TestFRASharedConcurrent has goroutines place shuffled k lists on one
// Reference at once; each placement must be the plain field's.
func TestFRASharedConcurrent(t *testing.T) {
	f := sharingFields(t)[1].f
	ks := []int{20, 45, 70, 110, 160, 35}
	want := make(map[int]core.Placement)
	for _, k := range ks {
		p, err := core.FRA(f, core.FRAOptions{K: k, Rc: 10, GridN: 40})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = p
	}
	ref := surface.NewReference(f)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := slices.Clone(ks)
		rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range order {
				got, err := core.FRA(ref, core.FRAOptions{K: k, Rc: 10, GridN: 40})
				if err != nil {
					t.Error(err)
					return
				}
				if d := samePlacement(got, want[k]); d != "" {
					t.Errorf("k=%d: %s", k, d)
				}
			}
		}()
	}
	wg.Wait()
}

// panicField is a field whose Eval panics on its n-th call.
type panicField struct {
	field.Field
	n     int64
	calls atomic.Int64
}

func (p *panicField) Eval(q geom.Vec2) float64 {
	if p.calls.Add(1) == p.n {
		panic("panicField: planned failure")
	}
	return p.Field.Eval(q)
}

// TestFRASharedPanicEndsTrajectory panics inside a trajectory extension:
// the failed step is not recorded, the trajectory takes no further step,
// and later placements on the same Reference still match the plain field.
func TestFRASharedPanicEndsTrajectory(t *testing.T) {
	f := sharingFields(t)[0].f
	const gridN, recorded = 30, 19
	// The calls before the extensions: the placing run's corners, the
	// trajectory's corners and the vertex lattice fill.
	pf := &panicField{Field: f, n: 4 + 4 + (gridN+1)*(gridN+1) + recorded + 1}
	ref := surface.NewReference(pf)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the extension did not panic")
			}
		}()
		core.FRA(ref, core.FRAOptions{K: 150, Rc: 10, GridN: gridN})
	}()
	steps, ended := core.TrajectorySteps(ref, gridN, 10, recorded+5)
	if len(steps) != recorded || !ended {
		t.Fatalf("after the panic: %d steps recorded, ended %v; want %d, true", len(steps), ended, recorded)
	}
	checkPlacements(t, "after panic", f, ref, gridN, 10, []int{150, 10, 40, 300})
}

// TestFRASharedBannedPath runs the trajectory of a zero field, which every
// reconstruction interpolates exactly, so its first argmax is the region
// corner (0, 0) that the triangulation refuses as a duplicate, and checks
// placements that replay the ban.
func TestFRASharedBannedPath(t *testing.T) {
	f := field.Constant(geom.Square(100), 0)
	ref := surface.NewReference(f)
	steps, _ := core.TrajectorySteps(ref, 10, 10, 3)
	if len(steps) == 0 || !steps[0].Banned {
		t.Fatalf("first step %+v, want a banned corner", steps)
	}
	checkPlacements(t, "constant", f, ref, 10, 10, []int{1, 2, 5, 20, 60, 200})
}

// TestFRASharedExhaustedPath runs a trajectory on a lattice small enough
// that the budget-free run runs out of candidates, and checks placements
// whose budgets reach past its end.
func TestFRASharedExhaustedPath(t *testing.T) {
	f := sharingFields(t)[2].f
	for _, rc := range []float64{1e9, 20, 5} {
		ref := surface.NewReference(f)
		steps, ended := core.TrajectorySteps(ref, 3, rc, 100)
		if !ended {
			t.Fatalf("rc=%g: the run on a 4×4 lattice did not end within 100 steps", rc)
		}
		end := steps[len(steps)-1].Picks + 1
		checkPlacements(t, fmt.Sprintf("exhausted rc=%g", rc), f, ref, 3, rc, []int{end + 3, end - 1, end, 1, end + 40})
	}
}
