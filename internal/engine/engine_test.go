package engine

import (
	"fmt"
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

// checkNeighbors pins the engine's index-backed neighbor discovery over
// its current positions to graph.NewUnitDisk's adjacency and to the
// brute-force predicate Dist² ≤ Rc² they both promise.
func checkNeighbors(t *testing.T, label string, e *Engine) {
	t.Helper()
	rc := e.opts.Config.Rc
	pos := e.Pos()
	g := graph.NewUnitDisk(pos, rc)
	e.refreshIndex()
	var buf, brute []int
	for i := range pos {
		buf = e.neighborsOf(i, buf[:0])
		brute = brute[:0]
		for j, q := range pos {
			if j != i && pos[i].Dist2(q) <= rc*rc {
				brute = append(brute, j)
			}
		}
		if want := g.Neighbors(i); !slices.Equal(buf, want) {
			t.Fatalf("%s node %d: %v via index, %v via graph", label, i, buf, want)
		}
		if !slices.Equal(buf, brute) {
			t.Fatalf("%s node %d: %v via index, %v by brute force", label, i, buf, brute)
		}
	}
}

// namedOpts is one configuration the after-movement checks step under.
type namedOpts struct {
	name string
	opts Options
}

// stepOpts returns the clean and the fault-profiled options the
// after-movement checks step a k-node engine under for the given slots.
func stepOpts(k, slots int) []namedOpts {
	return []namedOpts{
		{"clean", Options{Config: mobile.DefaultConfig()}},
		{"profile", profiledOpts(k, slots)},
	}
}

// TestNeighborsMatchGraph checks neighbor discovery against the unit-disk
// graph and brute force below and above the graph's 256-node
// scan-vs-index switch, on the initial layout and after every one of
// several slots of movement, clean and under a fault profile — so the
// index is checked after re-indexing moved points too. Besides clustered
// random layouts, which never land on the boundary, it starts from two
// boundary-tie layouts: a lattice at spacing exactly Rc from a non-integer
// origin, and well-separated pairs at distance Nextafter(Rc, ±Inf) and Rc
// in many directions.
func TestNeighborsMatchGraph(t *testing.T) {
	const slots = 4
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
			for _, o := range stepOpts(len(pts), slots) {
				e, err := New(forest, pts, o.opts)
				if err != nil {
					t.Fatal(err)
				}
				moved := 0
				for s := 0; ; s++ {
					checkNeighbors(t, fmt.Sprintf("%s k=%d %s slot %d", l.name, k, o.name, s), e)
					if s == slots {
						break
					}
					st, err := e.Step()
					if err != nil {
						t.Fatalf("%s k=%d %s slot %d: %v", l.name, k, o.name, s, err)
					}
					moved += st.Moved
				}
				if moved == 0 {
					t.Fatalf("%s k=%d %s: no node moved", l.name, k, o.name)
				}
			}
		}
	}
}

// TestConnectedInMatchesGraph compares the engine's index-backed BFS
// connectivity with the graph package's under random alive masks, on the
// initial grid layout and after every one of several slots of movement,
// clean and under a fault profile.
func TestConnectedInMatchesGraph(t *testing.T) {
	const slots = 4
	rng := rand.New(rand.NewSource(33))
	for _, k := range []int{50, 120, 300} {
		for _, o := range stepOpts(k, slots) {
			e := newTestEngine(t, k, o.opts)
			moved := 0
			for s := 0; ; s++ {
				label := fmt.Sprintf("k=%d %s slot %d", k, o.name, s)
				checkNeighbors(t, label, e)
				g := graph.NewUnitDisk(e.Pos(), mobile.DefaultConfig().Rc)
				for trial := 0; trial < 10; trial++ {
					mask := make([]bool, k)
					for i := range mask {
						mask[i] = rng.Float64() < 0.8
					}
					v := view.Alive{Pos: e.Pos(), Mask: mask}
					if got, want := e.ConnectedIn(v), g.ConnectedIn(v); got != want {
						t.Fatalf("%s trial %d: engine connected=%v, graph=%v", label, trial, got, want)
					}
				}
				zero := view.Alive{}
				if got, want := e.ConnectedIn(zero), g.ConnectedIn(zero); got != want {
					t.Fatalf("%s all-alive: engine connected=%v, graph=%v", label, got, want)
				}
				if s == slots {
					break
				}
				st, err := e.Step()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				moved += st.Moved
			}
			if moved == 0 {
				t.Fatalf("k=%d %s: no node moved", k, o.name)
			}
		}
	}
}

// BenchmarkNeighborDiscoveryIndex measures per-slot neighbor discovery
// through the engine's spatial index at n=2000: one in-place re-index,
// then every node's list.
func BenchmarkNeighborDiscoveryIndex(b *testing.B) {
	const n = 2000
	forest := field.NewForest(field.DefaultForestConfig())
	e, err := New(forest, field.RandomPositions(forest.Bounds(), n, 17), Options{Config: mobile.DefaultConfig(), SlotMinutes: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var buf []int
	for i := 0; i < b.N; i++ {
		// Stale the index epoch so every iteration pays the per-slot
		// re-index a moving swarm pays.
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
	pts := field.RandomPositions(forest.Bounds(), n, 17)
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

// TestNewRejectsBadNoise checks New refuses a sensing-noise standard
// deviation that is negative, infinite or NaN, and accepts zero.
func TestNewRejectsBadNoise(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	pos := field.GridLayout(forest.Bounds(), 4)
	for _, std := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(forest, pos, Options{Config: mobile.DefaultConfig(), NoiseStd: std}); err == nil {
			t.Errorf("NoiseStd %v: want an error", std)
		}
	}
	if _, err := New(forest, pos, Options{Config: mobile.DefaultConfig()}); err != nil {
		t.Errorf("NoiseStd 0: %v", err)
	}
}
