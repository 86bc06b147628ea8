package engine

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobile"
	"repro/internal/view"
)

// newTestEngine builds a grid swarm over the default forest field. k > 64
// exercises the banded parallel paths.
func newTestEngine(t testing.TB, k int, opts Options) *Engine {
	t.Helper()
	forest := field.NewForest(field.DefaultForestConfig())
	if opts.Config.Rc == 0 {
		opts.Config = mobile.DefaultConfig()
	}
	if opts.SlotMinutes == 0 {
		opts.SlotMinutes = 1
	}
	e, err := New(forest, field.GridLayout(forest.Bounds(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runRecorded steps an engine and records stats plus position bits.
func runRecorded(t testing.TB, e *Engine, slots int) ([]StepStats, []uint64) {
	t.Helper()
	var stats []StepStats
	var bits []uint64
	for s := 0; s < slots; s++ {
		st, err := e.Step()
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		stats = append(stats, st)
		for _, p := range e.Pos() {
			bits = append(bits, math.Float64bits(p.X), math.Float64bits(p.Y))
		}
	}
	return stats, bits
}

func compareRuns(t *testing.T, label string, aStats, bStats []StepStats, aBits, bBits []uint64) {
	t.Helper()
	for s := range aStats {
		if aStats[s] != bStats[s] {
			t.Fatalf("%s: slot %d stats diverged:\n%+v\n%+v", label, s, aStats[s], bStats[s])
		}
	}
	for i := range aBits {
		if aBits[i] != bBits[i] {
			t.Fatalf("%s: coordinate bits %d diverged: %016x vs %016x", label, i, aBits[i], bBits[i])
		}
	}
}

// profiledOpts returns options with every fault channel active, so the
// serial-gated stage paths are exercised too.
func profiledOpts(k, slots int) Options {
	return Options{
		Config: mobile.DefaultConfig(),
		Faults: fault.NewInjector(k, fault.Profile(0.3, slots, 9)),
	}
}

// TestStepGOMAXPROCSInvariant pins the banded-parallel determinism rule:
// the engine must produce bit-identical statistics and trajectories at any
// worker count, on both the fault-free and the fault-injected path.
func TestStepGOMAXPROCSInvariant(t *testing.T) {
	const k, slots = 150, 6
	type scenario struct {
		name string
		opts func() Options
	}
	scenarios := []scenario{
		{"clean", func() Options { return Options{} }},
		{"profile", func() Options { return profiledOpts(k, slots) }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			base := newTestEngine(t, k, sc.opts())
			baseStats, baseBits := runRecorded(t, base, slots)
			for _, procs := range []int{1, 2, runtime.NumCPU()} {
				prev := runtime.GOMAXPROCS(procs)
				e := newTestEngine(t, k, sc.opts())
				stats, bits := runRecorded(t, e, slots)
				runtime.GOMAXPROCS(prev)
				compareRuns(t, sc.name, baseStats, stats, baseBits, bits)
			}
		})
	}
}

// noopStage does nothing; splicing it anywhere in the pipeline must not
// change any result bit.
type noopStage struct{}

func (noopStage) Name() string                 { return "noop" }
func (noopStage) Run(e *Engine, s *Slot) error { return nil }

// TestStageInsertionInvariant checks that StepStats counters are a
// function of the stage pipeline's dataflow, not of incidental stage
// boundaries: interleaving inert stages between every default stage — and
// running a fresh pipeline slice — reproduces the default run exactly.
func TestStageInsertionInvariant(t *testing.T) {
	const k, slots = 100, 5
	var spliced []Stage
	for _, st := range DefaultStages() {
		spliced = append(spliced, noopStage{}, st)
	}
	spliced = append(spliced, noopStage{})

	base := newTestEngine(t, k, Options{})
	custom := newTestEngine(t, k, Options{Stages: spliced})
	baseStats, baseBits := runRecorded(t, base, slots)
	customStats, customBits := runRecorded(t, custom, slots)
	compareRuns(t, "spliced", baseStats, customStats, baseBits, customBits)

	baseF := newTestEngine(t, k, profiledOpts(k, slots))
	of := profiledOpts(k, slots)
	of.Stages = spliced
	customF := newTestEngine(t, k, of)
	baseFStats, baseFBits := runRecorded(t, baseF, slots)
	customFStats, customFBits := runRecorded(t, customF, slots)
	compareRuns(t, "spliced-faulty", baseFStats, customFStats, baseFBits, customFBits)
}

// TestNeighborsMatchGraph pins the engine's index-backed neighbor
// discovery to graph.NewUnitDisk's adjacency and to the brute-force
// predicate Dist² ≤ Rc² they both promise, below and above the graph's
// 256-node scan-vs-index switch. Besides clustered random layouts, which
// never land on the boundary, it runs two boundary-tie layouts: a lattice
// at spacing exactly Rc from a non-integer origin, and well-separated
// pairs at distance Nextafter(Rc, ±Inf) and Rc in many directions.
func TestNeighborsMatchGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// A wide region, so New's clamp leaves the boundary layouts intact;
	// random layouts stay clustered in the default 100 m square.
	cfg := field.DefaultForestConfig()
	cfg.Region = geom.Square(600)
	forest := field.NewForest(cfg)
	rc := mobile.DefaultConfig().Rc
	random := func(k int) []geom.Vec2 {
		pts := make([]geom.Vec2, k)
		bb := geom.Square(100)
		for i := range pts {
			pts[i] = geom.V2(bb.Min.X+rng.Float64()*bb.Width(), bb.Min.Y+rng.Float64()*bb.Height())
		}
		return pts
	}
	lattice := func(k int) []geom.Vec2 {
		pts := make([]geom.Vec2, k)
		for i := range pts {
			pts[i] = geom.V2(0.1+float64(i%20)*rc, 0.3+float64(i/20)*rc)
		}
		return pts
	}
	pairs := func(k int) []geom.Vec2 {
		gaps := []float64{math.Nextafter(rc, math.Inf(1)), math.Nextafter(rc, math.Inf(-1)), rc}
		var pts []geom.Vec2
		for p := 0; len(pts) < k; p++ {
			a := geom.V2(0.1+float64(p%12)*3*rc, 0.3+float64(p/12)*3*rc)
			// Spread the partner direction by the golden angle: at some
			// angles the rounded Dist² and the rounded Dist disagree on
			// which side of Rc a partner near the boundary falls.
			theta := float64(p) * 2.399963229728653
			d := gaps[p%3]
			pts = append(pts, a, a.Add(geom.V2(d*math.Cos(theta), d*math.Sin(theta))))
		}
		return pts
	}
	layouts := []struct {
		name string
		gen  func(k int) []geom.Vec2
		ks   []int
	}{
		{"random", random, []int{40, 200, 400}},
		{"lattice", lattice, []int{200, 400}},
		{"pairs", pairs, []int{200, 400}},
	}
	for _, l := range layouts {
		for _, k := range l.ks {
			pts := l.gen(k)
			e, err := New(forest, pts, Options{Config: mobile.DefaultConfig()})
			if err != nil {
				t.Fatal(err)
			}
			g := graph.NewUnitDisk(e.Pos(), rc)
			e.refreshIndex()
			var buf, brute []int
			for i := 0; i < k; i++ {
				buf = e.neighborsOf(i, buf[:0])
				brute = brute[:0]
				for j, q := range e.Pos() {
					if j != i && e.Pos()[i].Dist2(q) <= rc*rc {
						brute = append(brute, j)
					}
				}
				if want := g.Neighbors(i); !slices.Equal(buf, want) {
					t.Fatalf("%s k=%d node %d: %v via index, %v via graph", l.name, k, i, buf, want)
				}
				if !slices.Equal(buf, brute) {
					t.Fatalf("%s k=%d node %d: %v via index, %v by brute force", l.name, k, i, buf, brute)
				}
			}
		}
	}
}

// TestConnectedInMatchesGraph compares the engine's index-backed BFS
// connectivity with the graph package's component count under random alive
// masks.
func TestConnectedInMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	forest := field.NewForest(field.DefaultForestConfig())
	for _, k := range []int{50, 120, 300} {
		e := newTestEngine(t, k, Options{})
		g := graph.NewUnitDisk(e.Pos(), mobile.DefaultConfig().Rc)
		for trial := 0; trial < 10; trial++ {
			mask := make([]bool, k)
			for i := range mask {
				mask[i] = rng.Float64() < 0.8
			}
			v := view.Alive{Pos: e.Pos(), Mask: mask}
			if got, want := e.ConnectedIn(v), g.ConnectedIn(v); got != want {
				t.Fatalf("k=%d trial %d: engine connected=%v, graph=%v", k, trial, got, want)
			}
		}
		zero := view.Alive{}
		if got, want := e.ConnectedIn(zero), g.ConnectedIn(zero); got != want {
			t.Fatalf("k=%d all-alive: engine connected=%v, graph=%v", k, got, want)
		}
		_ = forest
	}
}

// largeNPositions spreads n nodes uniformly over the bounds — the
// BenchmarkStepLargeN layout, above graph.NewUnitDisk's 256-node scan
// threshold so its spatial index path is the one measured.
func largeNPositions(bb geom.Rect, n int, seed int64) []geom.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec2, n)
	for i := range pts {
		pts[i] = geom.V2(bb.Min.X+rng.Float64()*bb.Width(), bb.Min.Y+rng.Float64()*bb.Height())
	}
	return pts
}

// BenchmarkStepLargeN measures a full staged step at n=2000 nodes — the
// CI smoke that catches step-loop regressions.
func BenchmarkStepLargeN(b *testing.B) {
	const n = 2000
	forest := field.NewForest(field.DefaultForestConfig())
	e, err := New(forest, largeNPositions(forest.Bounds(), n, 17), Options{Config: mobile.DefaultConfig(), SlotMinutes: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighborDiscoveryIndex measures per-step neighbor enumeration
// through the engine's cached spatial index at n=2000.
func BenchmarkNeighborDiscoveryIndex(b *testing.B) {
	const n = 2000
	forest := field.NewForest(field.DefaultForestConfig())
	e, err := New(forest, largeNPositions(forest.Bounds(), n, 17), Options{Config: mobile.DefaultConfig(), SlotMinutes: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var buf []int
	for i := 0; i < b.N; i++ {
		// Force the full rebuild the old path paid every step; with the
		// incremental index a stale idxEpoch alone would be a no-op walk
		// over unmoved points.
		e.idx = nil
		e.idxEpoch = e.epoch - 1
		e.refreshIndex()
		total := 0
		for v := 0; v < n; v++ {
			buf = e.neighborsOf(v, buf[:0])
			total += len(buf)
		}
		if total == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkNeighborDiscoveryGraph measures the pre-refactor path: a full
// unit-disk graph rebuild per step, then adjacency reads.
func BenchmarkNeighborDiscoveryGraph(b *testing.B) {
	const n = 2000
	forest := field.NewForest(field.DefaultForestConfig())
	pts := largeNPositions(forest.Bounds(), n, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.NewUnitDisk(pts, mobile.DefaultConfig().Rc)
		total := 0
		for v := 0; v < n; v++ {
			total += len(g.Neighbors(v))
		}
		if total == 0 {
			b.Fatal("no edges")
		}
	}
}
