package sweep

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// scenarioSpec sweeps all three environment kinds — a plain field, a
// splitting plume, and an inline trace replay — across the fra and tour
// strategies with a mobile phase.
func scenarioSpec() Spec {
	s := Spec{
		Name:       "scenarios",
		Fields:     []FieldSpec{{Kind: "peaks"}},
		DynFields:  []DynFieldSpec{{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 4}},
		Traces:     []TraceSpec{{Name: "trace:example", Inline: exampleTraceCSV}},
		Ks:         []int{8},
		Rcs:        []float64{30},
		Strategies: []string{"fra", "tour"},
		GridN:      12,
		DeltaN:     12,
		Slots:      4,
	}
	s.Normalize()
	return s
}

// TestScenarioAxesBitIdentical extends the sharding determinism contract
// to the dynamic axes: a plume × trace × tour grid aggregated under 4
// workers is byte-identical to the serial run, every environment label
// shows up, and the mobile phase reports the tour-facing δ-per-length
// metric.
func TestScenarioAxesBitIdentical(t *testing.T) {
	spec := scenarioSpec()
	if n := spec.NumCells(); n != 6 {
		t.Fatalf("grid has %d cells, want 6", n)
	}
	serial, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := Run(spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if !bytes.Equal(renderJSON(t, serial), renderJSON(t, parallel)) {
		t.Fatal("workers=4 output differs from workers=1 on dynamic axes")
	}
	if serial.Failed != 0 {
		t.Fatalf("report: %+v", serial)
	}
	envs := map[string]bool{}
	for _, r := range serial.Cells {
		envs[r.Field] = true
		if r.Mobile == nil {
			t.Fatalf("cell %d missing mobile phase", r.Index)
		}
		if r.Mobile.DeltaPerLength <= 0 {
			t.Fatalf("cell %d (%s/%s): delta_per_length = %g",
				r.Index, r.Field, r.Strategy, r.Mobile.DeltaPerLength)
		}
	}
	for _, want := range []string{"peaks", "plume@2+split", "trace:example"} {
		if !envs[want] {
			t.Errorf("environment %q missing from report (got %v)", want, envs)
		}
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, serial); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "delta_per_length") {
		t.Fatal("CSV header missing delta_per_length")
	}
}

// TestScenarioResume interrupts a dynamic-axes sweep mid-grid and
// resumes it: the aggregate must stay byte-identical and the replayed
// cells must not recompute.
func TestScenarioResume(t *testing.T) {
	spec := scenarioSpec()
	full, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	want := renderJSON(t, full)

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 3}); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	resumed, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.Resumed != 3 || resumed.Computed != 3 {
		t.Fatalf("resumed=%d computed=%d, want 3/3", resumed.Resumed, resumed.Computed)
	}
	if !bytes.Equal(renderJSON(t, resumed), want) {
		t.Fatal("resumed dynamic-axes output differs from uninterrupted run")
	}
}

// TestEnvDigestCompatibility pins the digest contract across the
// environment kinds. Plain-field cells must keep the exact pre-axis
// digest bytes — old checkpoints keep replaying — while dynfield and
// trace cells get distinct identities that old checkpoints can never
// have produced.
func TestEnvDigestCompatibility(t *testing.T) {
	spec := scenarioSpec()
	cells := spec.Cells()
	var fieldCell, dynCell, traceCell *Cell
	for i := range cells {
		c := &cells[i]
		switch {
		case c.Dyn != nil && dynCell == nil:
			dynCell = c
		case c.Trace != nil && traceCell == nil:
			traceCell = c
		case c.Dyn == nil && c.Trace == nil && fieldCell == nil:
			fieldCell = c
		}
	}
	if fieldCell == nil || dynCell == nil || traceCell == nil {
		t.Fatal("scenario spec does not cover all environment kinds")
	}

	// The plain-field digest format predates the dynamic axes; recompute
	// it here byte for byte. Changing this format orphans every existing
	// checkpoint, so it fails the build instead.
	h := fnv.New64a()
	c := *fieldCell
	fmt.Fprintf(h, "field=%s|%d|%g|%d|%d|%g;", c.Field.Kind, c.Field.Seed, c.Field.Size,
		c.Field.Gaps, c.Field.Levels, c.Field.Roughness)
	fmt.Fprintf(h, "k=%d;rc=%g;strategy=%s;fault=%g|%d;seed=%d;", c.K, c.Rc, c.Strategy, c.Fault.Rate, c.Fault.Seed, c.Seed)
	fmt.Fprintf(h, "grid=%d;delta=%d;draws=%d;slots=%d", spec.GridN, spec.DeltaN, spec.RandomDraws, spec.Slots)
	if want := fmt.Sprintf("%016x", h.Sum64()); spec.Digest(*fieldCell) != want {
		t.Fatalf("plain-field digest format changed: %s, want pre-axis %s", spec.Digest(*fieldCell), want)
	}

	// Every dynfield knob is result-affecting and must shift the digest.
	base := spec.Digest(*dynCell)
	variants := []DynFieldSpec{
		{Kind: "plume", Seed: 3, Sources: 2, SplitAt: 4},
		{Kind: "plume", Seed: 2, Sources: 3, SplitAt: 4},
		{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 5},
		{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 4, Wind: 0.9},
		{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 4, Diffusion: 1.1},
		{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 4, Decay: 0.1},
		{Kind: "plume", Seed: 2, Sources: 2, SplitAt: 4, Size: 150},
	}
	for _, v := range variants {
		mod := *dynCell
		v := v
		mod.Dyn = &v
		if spec.Digest(mod) == base {
			t.Errorf("dynfield variant %+v did not change the digest", v)
		}
	}

	// A trace cell's identity is its content: one changed byte, new
	// digest; renaming the label, same digest.
	tBase := spec.Digest(*traceCell)
	edited := *traceCell.Trace
	edited.Inline = strings.Replace(edited.Inline, "2\n", "3\n", 1)
	mod := *traceCell
	mod.Trace = &edited
	if spec.Digest(mod) == tBase {
		t.Error("trace content edit did not change the digest")
	}
	renamed := *traceCell.Trace
	renamed.Name = "other-label"
	mod.Trace = &renamed
	if spec.Digest(mod) != tBase {
		t.Error("trace label leaked into the digest")
	}

	// A path-backed trace with the same bytes is the same computation.
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(path, []byte(traceCell.Trace.Inline), 0o644); err != nil {
		t.Fatal(err)
	}
	byPath := *traceCell.Trace
	byPath.Inline, byPath.Path = "", path
	mod.Trace = &byPath
	if spec.Digest(mod) != tBase {
		t.Error("path-backed trace with identical bytes got a different digest")
	}

	// All three kinds are mutually distinct for otherwise-equal cells.
	if spec.Digest(*fieldCell) == spec.Digest(*dynCell) || spec.Digest(*dynCell) == spec.Digest(*traceCell) {
		t.Fatal("environment kinds share digests")
	}
}

// TestTraceSpecGuardrails covers the Path-XOR-Inline contract, the
// unreadable-path behavior (stable digest, loud Build error), and the
// dynfield validation errors.
func TestTraceSpecGuardrails(t *testing.T) {
	if err := (TraceSpec{}).Validate(); err == nil {
		t.Error("trace with neither path nor inline accepted")
	}
	if err := (TraceSpec{Path: "x.csv", Inline: "t,x,y,z\n"}).Validate(); err == nil {
		t.Error("trace with both path and inline accepted")
	}
	if err := (TraceSpec{Inline: "t,x,y,z\n0,1,1,1\n", Size: -5}).Validate(); err == nil {
		t.Error("negative trace size accepted")
	}

	missing := TraceSpec{Path: filepath.Join(t.TempDir(), "absent.csv")}
	if err := missing.Validate(); err != nil {
		t.Fatalf("unreadable path must validate (digest uses a sentinel): %v", err)
	}
	if a, b := missing.contentHash(), missing.contentHash(); a != b || a == "" {
		t.Fatalf("unreadable path hash unstable: %q vs %q", a, b)
	}
	if _, err := missing.Build(); err == nil {
		t.Fatal("unreadable path did not fail Build")
	}
	if _, err := (TraceSpec{Inline: "not a trace"}).Build(); err == nil {
		t.Fatal("malformed inline CSV did not fail Build")
	}

	if err := (DynFieldSpec{Kind: "tornado"}).Validate(); err == nil {
		t.Error("unknown dynfield kind accepted")
	}
	if err := (DynFieldSpec{Kind: "plume", Wind: -1}).Validate(); err == nil {
		t.Error("negative dynfield knob accepted")
	}
}

// TestTracePathCellRuns runs a real cell whose environment comes from a
// trace file on disk — the deployment-replay path end to end.
func TestTracePathCellRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deploy.csv")
	if err := os.WriteFile(path, []byte(exampleTraceCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:   "path-trace",
		Traces: []TraceSpec{{Path: path}},
		Ks:     []int{6},
		Rcs:    []float64{40},
		GridN:  10,
		DeltaN: 10,
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells = %d", len(cells))
	}
	r := RunCell(&spec, cells[0], nil)
	if r.Err != "" {
		t.Fatalf("trace cell failed: %s", r.Err)
	}
	if r.Field != "trace:deploy.csv" {
		t.Fatalf("trace label = %q", r.Field)
	}
	if r.Delta <= 0 {
		t.Fatalf("δ = %g", r.Delta)
	}
}

// TestEnvDigestPinned pins one plain-field and one dynfield cell digest to
// fixed hex. Checkpoints key their results by these digests, so any change
// to the environment tuples' format orphans every stored cell and fails
// here first.
func TestEnvDigestPinned(t *testing.T) {
	spec := Spec{
		Fields:      []FieldSpec{{Kind: "terrain", Seed: 7, Size: 120, Gaps: 3, Levels: 4, Roughness: 0.6}},
		DynFields:   []DynFieldSpec{{Kind: "plume", Seed: 2, Size: 90, Sources: 3, Wind: 0.5, Diffusion: 1.1, Decay: 0.05, SplitAt: 4}},
		Ks:          []int{6},
		Rcs:         []float64{15},
		Strategies:  []string{"fra"},
		Faults:      []fault.ProfileSpec{{Rate: 0.1, Seed: 9}},
		Seeds:       []int64{3},
		GridN:       50,
		DeltaN:      40,
		RandomDraws: 2,
		Slots:       5,
	}
	cells := spec.Cells()
	for i, want := range []string{"1f1a6730b1047d76", "5feea9c0810f80f2"} {
		if got := spec.Digest(cells[i]); got != want {
			t.Errorf("cell %d (%s) digest = %s, want %s", i, cells[i].EnvLabel(), got, want)
		}
	}
}
