// Package sweep is the scenario-sweep execution engine: the paper's
// evaluation (Section 6) is a grid of scenarios — field shape, node count
// k, communication radius Rc, fault severity, seed — evaluated one cell at
// a time, and this package turns that grid into a batch workload. A
// declarative, JSON-loadable Spec describes the cartesian product; the
// engine shards the cells across a bounded worker pool, runs each cell
// through the engine/eval stack in isolation, streams the results into
// an order-independent aggregator, and checkpoints completed cells so an
// interrupted sweep resumes without recomputing.
//
// Determinism contract: every cell is seeded independently and touches no
// shared mutable state, so a cell's result is bit-identical to a serial
// run of the same spec regardless of worker count, completion order, or
// whether the result was computed live or replayed from a checkpoint. The
// aggregated output is ordered by cell index and therefore byte-identical
// across runs.
package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/strategy"
)

// FieldSpec selects and parameterizes one environment generator. Kind is
// mandatory; the remaining knobs default per kind so a bare
// {"kind":"forest"} is the paper's GreenOrbs-style canopy.
type FieldSpec struct {
	// Kind names the generator: "forest", "peaks", "terrain" or "ridge".
	Kind string `json:"kind"`
	// Seed overrides the generator's default seed (forest canopy layout,
	// terrain noise). 0 keeps the kind's default.
	Seed int64 `json:"seed,omitempty"`
	// Size is the square region side in meters; 0 defaults to 100, the
	// paper's region.
	Size float64 `json:"size,omitempty"`
	// Gaps is the forest canopy-gap count; 0 keeps the default.
	Gaps int `json:"gaps,omitempty"`
	// Levels and Roughness parameterize the terrain generator; zero
	// values keep the defaults.
	Levels    int     `json:"levels,omitempty"`
	Roughness float64 `json:"roughness,omitempty"`
}

// fieldKinds lists the accepted FieldSpec kinds.
var fieldKinds = map[string]bool{"forest": true, "peaks": true, "terrain": true, "ridge": true}

// maxFeatures caps a forest's gap count and a plume's source count. A
// generator evaluates every feature at every point it is asked for, so a
// field's cost grows linearly with the count, and a few bytes of spec
// could otherwise ask for seconds per lattice or gigabytes of features.
// The defaults are 12 gaps and 2 sources.
const maxFeatures = 1024

// Validate rejects unknown kinds and malformed knobs.
func (fs FieldSpec) Validate() error {
	if !fieldKinds[fs.Kind] {
		return fmt.Errorf("sweep: unknown field kind %q", fs.Kind)
	}
	if fs.Size < 0 || fs.Gaps < 0 || fs.Levels < 0 || fs.Roughness < 0 {
		return fmt.Errorf("sweep: negative field parameter in %+v", fs)
	}
	if fs.Gaps > maxFeatures {
		return fmt.Errorf("sweep: %w: gaps=%d (at most %d)", ErrOverBudget, fs.Gaps, maxFeatures)
	}
	return nil
}

// Build constructs the field. Every call returns a fresh instance, so
// concurrent cells never share generator state.
func (fs FieldSpec) Build() (field.DynField, error) {
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	size := fs.Size
	if size <= 0 {
		size = 100
	}
	region := geom.Square(size)
	switch fs.Kind {
	case "forest":
		cfg := field.DefaultForestConfig()
		cfg.Region = region
		if fs.Seed != 0 {
			cfg.Seed = fs.Seed
		}
		if fs.Gaps > 0 {
			cfg.Gaps = fs.Gaps
		}
		return field.NewForest(cfg), nil
	case "peaks":
		return field.Static(field.Peaks(region)), nil
	case "terrain":
		levels, rough, seed := fs.Levels, fs.Roughness, fs.Seed
		if levels <= 0 {
			levels = 5
		}
		if rough <= 0 {
			rough = 0.55
		}
		if seed == 0 {
			seed = 1
		}
		return field.Static(field.NewTerrain(region, levels, rough, seed)), nil
	case "ridge":
		return field.Static(field.Ridge(region, region.Min, region.Max, 5, size/8)), nil
	}
	return nil, fmt.Errorf("sweep: unknown field kind %q", fs.Kind)
}

// WriteDigest writes the field's identity tuple, the environment part of
// every digest that names a computation on it: the sweep's cell digest
// and the service's cache key. Checkpoints are keyed by those digests, so
// the format must never change.
func (fs FieldSpec) WriteDigest(w io.Writer) {
	fmt.Fprintf(w, "field=%s|%d|%g|%d|%d|%g;", fs.Kind, fs.Seed, fs.Size, fs.Gaps, fs.Levels, fs.Roughness)
}

// Label is the human- and CSV-facing name of the field configuration:
// the kind, with non-default seed and size attached.
func (fs FieldSpec) Label() string {
	var b strings.Builder
	b.WriteString(fs.Kind)
	if fs.Seed != 0 {
		fmt.Fprintf(&b, "@%d", fs.Seed)
	}
	if fs.Size > 0 && fs.Size != 100 {
		fmt.Fprintf(&b, "/%gm", fs.Size)
	}
	return b.String()
}

// Spec is the declarative scenario grid: the sweep runs the cartesian
// product Fields × Ks × Rcs × Strategies × Faults × Seeds, with the
// resolution and run-length knobs shared by every cell. Load one from
// JSON with LoadSpec; zero optional fields take the documented defaults
// via Normalize.
type Spec struct {
	// Name labels the sweep in reports and output files.
	Name string `json:"name"`
	// Fields are the environment generators to sweep over.
	Fields []FieldSpec `json:"fields"`
	// DynFields are generated time-varying environments (advection–
	// diffusion plumes); they join Fields in the environment axis.
	DynFields []DynFieldSpec `json:"dynfields,omitempty"`
	// Traces are recorded CSV time series replayed as environments.
	Traces []TraceSpec `json:"traces,omitempty"`
	// Ks are the node counts.
	Ks []int `json:"ks"`
	// Rcs are the communication radii.
	Rcs []float64 `json:"rcs"`
	// Strategies are the placement strategies to bench against each other,
	// resolved from the strategy registry; empty defaults to ["fra"]. Each
	// cell places with its strategy and, in the mobile phase, moves with
	// the same-named movement strategy when one is registered (CMA
	// otherwise — see strategy.MovementFor).
	Strategies []string `json:"strategies,omitempty"`
	// Faults are the fault profiles; empty defaults to the single
	// fault-free profile.
	Faults []fault.ProfileSpec `json:"faults,omitempty"`
	// Seeds drive each cell's random baseline, sensing noise and fault
	// streams; empty defaults to [1].
	Seeds []int64 `json:"seeds,omitempty"`
	// GridN is the FRA local-error lattice resolution; 0 defaults to 50.
	GridN int `json:"grid_n,omitempty"`
	// DeltaN is the δ integration lattice resolution; 0 defaults to 50.
	DeltaN int `json:"delta_n,omitempty"`
	// RandomDraws is how many random deployments are averaged into each
	// cell's baseline; 0 skips the random baseline.
	RandomDraws int `json:"random_draws,omitempty"`
	// Slots is the mobile (CMA + faults) run length per cell in slots;
	// 0 skips the mobile phase and sweeps the static FRA placement only.
	Slots int `json:"slots,omitempty"`
}

// Normalize fills the documented defaults in place.
func (s *Spec) Normalize() {
	if len(s.Strategies) == 0 {
		s.Strategies = []string{"fra"}
	}
	if len(s.Faults) == 0 {
		s.Faults = []fault.ProfileSpec{{}}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.GridN == 0 {
		s.GridN = 50
	}
	if s.DeltaN == 0 {
		s.DeltaN = 50
	}
}

// Validate rejects empty or malformed grids. Call Normalize first.
func (s *Spec) Validate() error {
	if s.NumEnvs() == 0 || len(s.Ks) == 0 || len(s.Rcs) == 0 {
		return fmt.Errorf("sweep: %w: spec needs at least one environment (field, dynfield or trace), k and rc", eval.ErrBadParams)
	}
	for _, fs := range s.Fields {
		if err := fs.Validate(); err != nil {
			return err
		}
	}
	for _, ds := range s.DynFields {
		if err := ds.Validate(); err != nil {
			return err
		}
	}
	for _, ts := range s.Traces {
		if err := ts.Validate(); err != nil {
			return err
		}
	}
	for _, k := range s.Ks {
		if k < 1 {
			return fmt.Errorf("sweep: k=%d < 1", k)
		}
	}
	for _, rc := range s.Rcs {
		if !(rc > 0) || math.IsInf(rc, 1) {
			return fmt.Errorf("sweep: rc=%g is not a positive finite radius", rc)
		}
	}
	for _, name := range s.Strategies {
		if !strategy.HasPlacement(name) {
			return fmt.Errorf("sweep: unknown strategy %q (registered: %s)",
				name, strings.Join(strategy.PlacementNames(), ", "))
		}
	}
	for _, fp := range s.Faults {
		if err := fp.Validate(); err != nil {
			return err
		}
		if fp.Rate > 0 && s.Slots == 0 {
			return fmt.Errorf("sweep: fault rate %g needs slots > 0 (faults act on the mobile run)", fp.Rate)
		}
	}
	if s.GridN < 1 || s.DeltaN < 1 || s.RandomDraws < 0 || s.Slots < 0 {
		return fmt.Errorf("sweep: grid_n=%d delta_n=%d random_draws=%d slots=%d out of range",
			s.GridN, s.DeltaN, s.RandomDraws, s.Slots)
	}
	if err := CheckWork(slices.Max(s.Ks), s.GridN, s.DeltaN, s.Slots); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// ErrOverBudget reports a placement, evaluation or sweep cell that would
// cost more than the work budget.
var ErrOverBudget = errors.New("over the work budget")

// Work budget of one placement, evaluation or sweep cell. The larger of
// its two lattices, the FRA local-error lattice (grid_n+1)² and the δ
// integration lattice (delta_n+1)², may hold at most maxLatticePoints
// points, 8 MiB per float64 table; lattice points × k, × slots for a
// mobile cell, may come to at most maxWork. A cost grows about n² in the
// lattice size, so without the bound a 60-byte request for grid_n =
// delta_n = 30000 asks for gigabytes.
const (
	maxLatticePoints = 1 << 20
	maxWork          = maxLatticePoints << 8
)

// CheckWork returns ErrOverBudget, wrapped with the figures, when k nodes
// placed on a grid_n lattice, evaluated on a delta_n lattice and, for
// slots > 0, moved for that many slots exceed the work budget. It does
// no work of its own, so it refuses at once.
func CheckWork(k, gridN, deltaN, slots int) error {
	n := float64(max(gridN, deltaN)) + 1
	points := n * n
	work := points * float64(max(k, 1)) * float64(max(slots, 1))
	if points > maxLatticePoints || work > maxWork {
		return fmt.Errorf("%w: k=%d grid_n=%d delta_n=%d slots=%d is %.3g lattice points (at most %d) and %.3g point-node-slots (at most %d)",
			ErrOverBudget, k, gridN, deltaN, slots, points, maxLatticePoints, work, maxWork)
	}
	return nil
}

// NumEnvs is the size of the environment axis: plain fields, generated
// dynamic fields, and trace replays together.
func (s *Spec) NumEnvs() int {
	return len(s.Fields) + len(s.DynFields) + len(s.Traces)
}

// NumCells is the size of the cartesian product.
func (s *Spec) NumCells() int {
	return s.NumEnvs() * len(s.Ks) * len(s.Rcs) * len(s.Strategies) * len(s.Faults) * len(s.Seeds)
}

// Cell is one point of the scenario grid.
type Cell struct {
	// Index is the cell's position in the fixed enumeration order
	// (environment-major, seed-minor); the aggregator orders output by it.
	Index int
	// Field is the cell's environment when it is a plain field; exactly
	// one of Field (non-empty Kind), Dyn and Trace is set.
	Field FieldSpec
	// Dyn is set when the cell's environment is a generated dynamic
	// field, Trace when it is a recorded-trace replay.
	Dyn   *DynFieldSpec
	Trace *TraceSpec
	// K, Rc, Strategy, Fault and Seed are the remaining coordinates.
	K        int
	Rc       float64
	Strategy string
	Fault    fault.ProfileSpec
	Seed     int64
}

// BuildEnv constructs the cell's environment, whichever of the three
// axes it came from.
func (c Cell) BuildEnv() (field.DynField, error) {
	switch {
	case c.Dyn != nil:
		return c.Dyn.Build()
	case c.Trace != nil:
		return c.Trace.Build()
	default:
		return c.Field.Build()
	}
}

// EnvLabel is the cell environment's CSV/report name.
func (c Cell) EnvLabel() string {
	switch {
	case c.Dyn != nil:
		return c.Dyn.Label()
	case c.Trace != nil:
		return c.Trace.Label()
	default:
		return c.Field.Label()
	}
}

// Cells enumerates the grid in the fixed deterministic order:
// environments outermost — plain fields, then dynfields, then traces —
// then ks, rcs, strategies, fault profiles, and seeds innermost.
func (s *Spec) Cells() []Cell {
	type env struct {
		field FieldSpec
		dyn   *DynFieldSpec
		trace *TraceSpec
	}
	envs := make([]env, 0, s.NumEnvs())
	for _, fs := range s.Fields {
		envs = append(envs, env{field: fs})
	}
	for i := range s.DynFields {
		envs = append(envs, env{dyn: &s.DynFields[i]})
	}
	for i := range s.Traces {
		envs = append(envs, env{trace: &s.Traces[i]})
	}
	cells := make([]Cell, 0, s.NumCells())
	for _, e := range envs {
		for _, k := range s.Ks {
			for _, rc := range s.Rcs {
				for _, st := range s.Strategies {
					for _, fp := range s.Faults {
						for _, seed := range s.Seeds {
							cells = append(cells, Cell{
								Index: len(cells),
								Field: e.field, Dyn: e.dyn, Trace: e.trace,
								K: k, Rc: rc, Strategy: st, Fault: fp, Seed: seed,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// Digest is a stable identity for a cell's computation: it hashes every
// input that can change the cell's result — the cell coordinates plus the
// spec-level resolution and run-length knobs — and nothing that cannot
// (the spec name, worker count, output paths). Checkpoint entries are
// keyed by it, so editing a spec invalidates exactly the cells whose
// inputs changed.
func (s *Spec) Digest(c Cell) string {
	h := fnv.New64a()
	c.writeEnvDigest(h)
	fmt.Fprintf(h, "k=%d;rc=%g;strategy=%s;fault=%g|%d;seed=%d;", c.K, c.Rc, c.Strategy, c.Fault.Rate, c.Fault.Seed, c.Seed)
	fmt.Fprintf(h, "grid=%d;delta=%d;draws=%d;slots=%d", s.GridN, s.DeltaN, s.RandomDraws, s.Slots)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeEnvDigest writes the environment part of the cell digest. Two
// cells that write the same bytes build the same environment, which is
// what lets a sweep worker reuse one cell's environment for the next.
func (c Cell) writeEnvDigest(w io.Writer) {
	switch {
	case c.Dyn != nil:
		// Distinct prefixes per environment kind: a checkpoint written
		// before the dynfield/trace axes existed can never satisfy a
		// dynamic cell, and a plain-field cell's digest is unchanged from
		// the pre-axis format so old checkpoints keep replaying.
		c.Dyn.WriteDigest(w)
	case c.Trace != nil:
		fmt.Fprintf(w, "trace=%s|%g;", c.Trace.contentHash(), c.Trace.Size)
	default:
		c.Field.WriteDigest(w)
	}
}

// SpecDigest is a stable identity for the whole sweep: the FNV-1a 64
// fold of every cell digest in enumeration order plus the grid size. Two
// specs share a SpecDigest exactly when they describe the same cells in
// the same order, so a checkpoint or a distributed worker stamped with
// it can refuse to mix results across different grids. Like the cell
// digest it ignores the spec name and anything else that cannot change
// results.
func (s *Spec) SpecDigest() string {
	h := fnv.New64a()
	for _, c := range s.Cells() {
		io.WriteString(h, s.Digest(c))
		h.Write([]byte{';'})
	}
	fmt.Fprintf(h, "n=%d", s.NumCells())
	return fmt.Sprintf("%016x", h.Sum64())
}

// LoadSpec parses a normalized, validated Spec from JSON. Unknown fields
// are rejected so a typo'd knob fails loudly instead of silently sweeping
// the wrong grid.
func LoadSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: parse spec: %w", err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpecFile reads a Spec from a JSON file.
func LoadSpecFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	return LoadSpec(f)
}

// ExampleSpec is a small, fast grid exercising every axis — two field
// shapes, a splitting plume, an inline trace replay, three strategies,
// two fault profiles, static and mobile phases — sized so a full run
// takes seconds. cmd/sweep -example prints it, CI smokes it, and the
// README walks through it.
func ExampleSpec() Spec {
	s := Spec{
		Name:   "example",
		Fields: []FieldSpec{{Kind: "forest"}, {Kind: "peaks"}},
		DynFields: []DynFieldSpec{
			{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 4},
		},
		Traces: []TraceSpec{
			{Name: "trace:example", Inline: exampleTraceCSV},
		},
		Ks:          []int{10, 20},
		Rcs:         []float64{10},
		Strategies:  []string{"fra", "lloyd", "tour"},
		Faults:      []fault.ProfileSpec{{}, {Rate: 0.3}},
		Seeds:       []int64{1},
		GridN:       30,
		DeltaN:      30,
		RandomDraws: 2,
		Slots:       8,
	}
	s.Normalize()
	return s
}

// exampleTraceCSV is a tiny two-epoch recorded trace in the WriteTrace
// format: five stations reporting at t = 0 and t = 10 with the hot spot
// migrating between them, so the replay field is genuinely time-varying
// inside the example's 8-slot mobile phase.
const exampleTraceCSV = `t,x,y,z
0,20,20,2
0,80,30,0.5
0,50,50,1
0,30,80,0.8
0,75,75,1.5
10,20,20,0.5
10,80,30,2
10,50,50,1.2
10,30,80,1.4
10,75,75,0.3
`
