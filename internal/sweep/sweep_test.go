package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// hundredCellSpec is the acceptance grid: 100 static cells at toy
// resolution — 2 fields × 5 ks × 2 rcs × 5 seeds.
func hundredCellSpec() Spec {
	s := Spec{
		Name:        "hundred",
		Fields:      []FieldSpec{{Kind: "peaks"}, {Kind: "ridge"}},
		Ks:          []int{2, 4, 6, 8, 10},
		Rcs:         []float64{30, 60},
		Seeds:       []int64{1, 2, 3, 4, 5},
		GridN:       12,
		DeltaN:      12,
		RandomDraws: 1,
	}
	s.Normalize()
	return s
}

// mobileSpec exercises the CMA-under-faults phase.
func mobileSpec() Spec {
	s := Spec{
		Name:   "mobile",
		Fields: []FieldSpec{{Kind: "forest"}},
		Ks:     []int{12},
		Rcs:    []float64{10},
		Faults: []fault.ProfileSpec{{}, {Rate: 0.4}},
		Seeds:  []int64{7},
		GridN:  16,
		DeltaN: 16,
		Slots:  5,
	}
	s.Normalize()
	return s
}

func renderJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestWorkersBitIdentical is the sharding determinism contract: a
// 100-cell spec aggregated under 8 workers is byte-identical to the
// serial run.
func TestWorkersBitIdentical(t *testing.T) {
	spec := hundredCellSpec()
	if n := spec.NumCells(); n != 100 {
		t.Fatalf("grid has %d cells, want 100", n)
	}
	serial, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := Run(spec, RunOptions{Workers: 8})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	a, b := renderJSON(t, serial), renderJSON(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=8 output differs from workers=1:\n%s\nvs\n%s", b, a)
	}
	var csvA, csvB bytes.Buffer
	if err := WriteCSV(&csvA, serial); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := WriteCSV(&csvB, parallel); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
		t.Fatal("CSV output differs between worker counts")
	}
	if serial.Failed != 0 || serial.Computed != 100 {
		t.Fatalf("serial report: %+v", serial)
	}
}

// TestResumeMatchesUninterrupted interrupts a sweep mid-grid (the
// deterministic MaxCells interruption), resumes it from the checkpoint,
// and demands byte-identical aggregated output — with the resumed cells
// replayed, not recomputed.
func TestResumeMatchesUninterrupted(t *testing.T) {
	spec := hundredCellSpec()
	full, err := Run(spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	want := renderJSON(t, full)

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	part, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, MaxCells: 37})
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if !part.Interrupted {
		t.Fatal("partial run not marked interrupted")
	}
	if len(part.Cells) != 37 {
		t.Fatalf("partial run finished %d cells, want 37", len(part.Cells))
	}

	resumed, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.Resumed != 37 || resumed.Computed != 63 {
		t.Fatalf("resumed=%d computed=%d, want 37/63", resumed.Resumed, resumed.Computed)
	}
	if got := renderJSON(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted run")
	}

	// A second resume replays everything and recomputes nothing.
	again, err := Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if again.Resumed != 100 || again.Computed != 0 {
		t.Fatalf("second resume: resumed=%d computed=%d, want 100/0", again.Resumed, again.Computed)
	}
	if got := renderJSON(t, again); !bytes.Equal(got, want) {
		t.Fatal("fully-replayed output differs from uninterrupted run")
	}
}

// TestMobilePhaseDeterministic runs the fault-injected mobile phase at
// two worker counts and checks the grid covers both fault profiles.
func TestMobilePhaseDeterministic(t *testing.T) {
	spec := mobileSpec()
	a, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !bytes.Equal(renderJSON(t, a), renderJSON(t, b)) {
		t.Fatal("mobile sweep differs between worker counts")
	}
	if len(a.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(a.Cells))
	}
	for _, r := range a.Cells {
		if r.Mobile == nil {
			t.Fatalf("cell %d missing mobile phase", r.Index)
		}
	}
	clean, faulty := a.Cells[0], a.Cells[1]
	if clean.FaultRate != 0 || faulty.FaultRate != 0.4 {
		t.Fatalf("unexpected cell order: rates %g, %g", clean.FaultRate, faulty.FaultRate)
	}
	if clean.Mobile.Deaths != 0 {
		t.Fatalf("fault-free cell recorded %d deaths", clean.Mobile.Deaths)
	}
	if faulty.Mobile.Deaths == 0 {
		t.Fatal("rate-0.4 cell recorded no deaths")
	}
}

// TestMobileResultJSONPinned pins the JSON of a cell with a mobile phase,
// key names and order, to a recorded literal: checkpoints and reports
// written by earlier builds must keep resuming and comparing byte for
// byte. The value also round-trips.
func TestMobileResultJSONPinned(t *testing.T) {
	m := &MobileResult{}
	m.DeltaEnd, m.DeltaMean = 1.5, 2.5
	m.ConvergenceT, m.Converged = 3, true
	m.ConnectedUptime, m.SinkReach = 0.25, 0.75
	m.AliveEnd, m.Deaths, m.Repairs, m.Rebuilds = 4, 5, 6, 7
	m.Energy, m.DeltaPerLength = 8.5, 9.5
	r := Result{
		Index: 1, Digest: "d", Field: "forest", K: 2, Rc: 10, Strategy: "fra",
		FaultRate: 0.5, Seed: 3, Delta: 11.5, Refined: 12, Relays: 13, Connected: true,
		DeltaRandom: 14.5, Mobile: m,
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"index":1,"digest":"d","field":"forest","k":2,"rc":10,"strategy":"fra",` +
		`"fault_rate":0.5,"seed":3,"delta":11.5,"refined":12,"relays":13,"connected":true,` +
		`"delta_random":14.5,"mobile":{"delta_end":1.5,"delta_mean":2.5,"convergence_t":3,` +
		`"converged":true,"connected_uptime":0.25,"sink_reach":0.75,"alive_end":4,"deaths":5,` +
		`"repairs":6,"rebuilds":7,"energy":8.5,"delta_per_length":9.5}}`
	if string(got) != want {
		t.Fatalf("JSON\n%s\nwant\n%s", got, want)
	}
	var back Result
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip %+v, want %+v", back, r)
	}
}

// TestCheckpointTornLine simulates a process killed mid-write: the torn
// final line is discarded on resume and only its cell recomputes.
func TestCheckpointTornLine(t *testing.T) {
	spec := hundredCellSpec()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 10}); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"digest":"dead","result":{"index":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume over torn checkpoint: %v", err)
	}
	if resumed.Resumed != 10 || len(resumed.Cells) != 100 {
		t.Fatalf("resumed=%d cells=%d, want 10/100", resumed.Resumed, len(resumed.Cells))
	}
}

// TestResumeSpecMismatch: a checkpoint written by one spec must be
// refused when -resume is attempted against a different spec, instead
// of silently mixing grids via digest misses.
func TestResumeSpecMismatch(t *testing.T) {
	spec := hundredCellSpec()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 10}); err != nil {
		t.Fatalf("partial run: %v", err)
	}

	changed := spec
	changed.DeltaN = 24
	changed.Normalize()
	_, err := Run(changed, RunOptions{Checkpoint: ckpt, Resume: true})
	if err == nil {
		t.Fatal("resume against a mismatched spec succeeded")
	}
	if !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("unhelpful refusal message: %v", err)
	}

	// The matching spec still resumes fine afterwards: refusal must not
	// have clobbered the checkpoint.
	resumed, err := Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume with matching spec: %v", err)
	}
	if resumed.Resumed != 10 {
		t.Fatalf("resumed=%d, want 10", resumed.Resumed)
	}
}

// TestResumeHeaderlessRefused: resume refuses a checkpoint that has cell
// lines but no spec-digest header, and the error names the exact header
// line whose prepending adopts the file. A missing or empty file is a
// fresh start.
func TestResumeHeaderlessRefused(t *testing.T) {
	spec := hundredCellSpec()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 10}); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	header, cells, _ := strings.Cut(string(raw), "\n")
	if err := os.WriteFile(ckpt, []byte(cells), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err == nil {
		t.Fatal("resume over a headerless checkpoint succeeded")
	}
	want := `{"spec_digest":"` + spec.SpecDigest() + `"}`
	if header != want || !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal %q does not name the header line %s", err, want)
	}

	// Prepending the named line is the migration path.
	if err := os.WriteFile(ckpt, []byte(want+"\n"+cells), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume after prepending the header: %v", err)
	}
	if resumed.Resumed != 10 || len(resumed.Cells) != 100 {
		t.Fatalf("resumed=%d cells=%d, want 10/100", resumed.Resumed, len(resumed.Cells))
	}

	empty := filepath.Join(t.TempDir(), "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, fresh := range []string{filepath.Join(t.TempDir(), "missing.ckpt"), empty} {
		rep, err := Run(spec, RunOptions{Checkpoint: fresh, Resume: true, MaxCells: 1})
		if err != nil || rep.Resumed != 0 {
			t.Fatalf("resume over %s: resumed=%v err=%v", filepath.Base(fresh), rep, err)
		}
	}
}

// TestCheckpointMidFileCorruption flips bytes in the middle of a
// checkpoint — a corrupted payload, a sum mismatch, and an unparsable
// line — and requires resume to skip exactly those cells with logged
// warnings while the aggregate stays byte-identical to the clean run.
func TestCheckpointMidFileCorruption(t *testing.T) {
	spec := hundredCellSpec()
	full, err := Run(spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	want := renderJSON(t, full)

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 20}); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 21 { // header + 20 cells
		t.Fatalf("checkpoint has %d lines, want 21", len(lines))
	}
	// Line 5: perturb the result payload bytes (sum now mismatches).
	lines[5] = strings.Replace(lines[5], `"result":{`, `"result":{ `, 1)
	// Line 9: truncate mid-line (unparsable, but not the final line).
	lines[9] = lines[9][:len(lines[9])/2]
	// Line 13: rewrite the sum itself.
	lines[13] = strings.Replace(lines[13], `"sum":"`, `"sum":"0`, 1)
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	resumed, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, Resume: true, Log: &log})
	if err != nil {
		t.Fatalf("resume over corrupted checkpoint: %v", err)
	}
	if resumed.Resumed != 17 || resumed.Computed != 83 {
		t.Fatalf("resumed=%d computed=%d, want 17/83", resumed.Resumed, resumed.Computed)
	}
	if got := renderJSON(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resume over corrupted checkpoint is not byte-identical to clean run")
	}
	warns := log.String()
	for _, frag := range []string{"integrity sum mismatch", "unparsable"} {
		if !strings.Contains(warns, frag) {
			t.Errorf("resume log missing %q warning:\n%s", frag, warns)
		}
	}
}

// TestDigestInvalidation: editing a knob that changes results must orphan
// the old checkpoint entries; editing nothing must not.
func TestDigestInvalidation(t *testing.T) {
	spec := hundredCellSpec()
	cells := spec.Cells()
	d0 := spec.Digest(cells[0])
	if d1 := spec.Digest(cells[0]); d1 != d0 {
		t.Fatalf("digest not stable: %s vs %s", d0, d1)
	}
	changed := spec
	changed.DeltaN = 24
	if spec.Digest(cells[0]) == changed.Digest(cells[0]) {
		t.Fatal("DeltaN change did not change the digest")
	}
	renamed := spec
	renamed.Name = "other"
	if spec.Digest(cells[0]) != renamed.Digest(cells[0]) {
		t.Fatal("spec name leaked into the digest")
	}
	seen := map[string]bool{}
	for _, c := range cells {
		d := spec.Digest(c)
		if seen[d] {
			t.Fatalf("digest collision at cell %d", c.Index)
		}
		seen[d] = true
	}
}

// TestCellFailureIsolation drives runCell into its error paths directly:
// a failed cell reports Err and never panics the caller.
func TestCellFailureIsolation(t *testing.T) {
	spec := hundredCellSpec()
	bad := Cell{Field: FieldSpec{Kind: "volcano"}, K: 4, Rc: 30, Seed: 1}
	r := RunCell(&spec, bad, nil)
	if r.Err == "" {
		t.Fatal("unknown field kind did not fail the cell")
	}
	broken := spec
	broken.GridN = -1 // bypasses Normalize: FRA must reject it
	r = RunCell(&broken, spec.Cells()[0], nil)
	if r.Err == "" {
		t.Fatal("invalid GridN did not fail the cell")
	}
}

// TestSpecValidation covers the load-time guardrails.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty grid", `{"name":"x","fields":[],"ks":[1],"rcs":[10]}`},
		{"bad k", `{"fields":[{"kind":"peaks"}],"ks":[0],"rcs":[10]}`},
		{"bad rc", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[-1]}`},
		{"bad kind", `{"fields":[{"kind":"lava"}],"ks":[5],"rcs":[10]}`},
		{"unknown knob", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[10],"wrkers":4}`},
		{"fault without slots", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[10],"faults":[{"rate":0.5}]}`},
		{"fault rate too high", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[10],"slots":5,"faults":[{"rate":1.5}]}`},
		{"gaps past the cap", `{"fields":[{"kind":"forest","gaps":1025}],"ks":[5],"rcs":[10]}`},
		{"sources past the cap", `{"dynfields":[{"kind":"plume","sources":1025}],"ks":[5],"rcs":[10]}`},
	}
	for _, tc := range cases {
		if _, err := LoadSpec(strings.NewReader(tc.json)); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
	good := `{"name":"ok","fields":[{"kind":"forest","seed":3}],"ks":[5,10],"rcs":[10],"slots":4,"faults":[{"rate":0.2}]}`
	s, err := LoadSpec(strings.NewReader(good))
	if err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	if s.GridN != 50 || s.DeltaN != 50 || len(s.Seeds) != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.NumCells() != 2 {
		t.Fatalf("NumCells=%d, want 2", s.NumCells())
	}
}

// TestFeatureCountCap pins the forest gap and plume source cap: the cap
// itself is accepted, anything past it is ErrOverBudget, refused before a
// generator loops over it.
func TestFeatureCountCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		over bool
	}{
		{"gaps at the cap", FieldSpec{Kind: "forest", Gaps: maxFeatures}.Validate(), false},
		{"gaps past the cap", FieldSpec{Kind: "forest", Gaps: maxFeatures + 1}.Validate(), true},
		{"gaps at MaxInt32", FieldSpec{Kind: "forest", Gaps: math.MaxInt32}.Validate(), true},
		{"sources at the cap", DynFieldSpec{Kind: "plume", Sources: maxFeatures}.Validate(), false},
		{"sources past the cap", DynFieldSpec{Kind: "plume", Sources: maxFeatures + 1}.Validate(), true},
	} {
		if tc.over && !errors.Is(tc.err, ErrOverBudget) {
			t.Errorf("%s: got %v, want ErrOverBudget", tc.name, tc.err)
		}
		if !tc.over && tc.err != nil {
			t.Errorf("%s: refused: %v", tc.name, tc.err)
		}
	}
}

// TestSpecValidateRc checks Validate refuses every radius that is not
// positive and finite. JSON cannot spell NaN or ±Inf, but a spec built in
// Go can.
func TestSpecValidateRc(t *testing.T) {
	for _, rc := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Spec{Fields: []FieldSpec{{Kind: "peaks"}}, Ks: []int{5}, Rcs: []float64{rc}}
		s.Normalize()
		if err := s.Validate(); err == nil {
			t.Errorf("rc=%g accepted", rc)
		}
	}
	s := Spec{Fields: []FieldSpec{{Kind: "peaks"}}, Ks: []int{5}, Rcs: []float64{1e300}}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Errorf("rc=1e300 rejected: %v", err)
	}
}

// TestCheckWork pins the work budget: every request and cell the
// benchmark, the CI smoke scripts and the CLI defaults send is admitted,
// and oversized lattices, node counts and mobile runs are refused with
// ErrOverBudget, by Spec validation too, at once.
func TestCheckWork(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		k, gridN, deltaN, slots int
	}{
		{"serve_place largest place", 400, 100, 100, 0},
		{"serve_place largest eval", 300, 1, 100, 0},
		{"serve smoke place", 120, 120, 150, 0},
		{"chaos smoke sweep", 12, 128, 128, 0},
		{"sweep_grid mobile cell", 25, 30, 30, 8},
		{"sweep defaults", 100, 50, 50, 100},
		{"evalall -full Fig. 7 sweep", 196, 100, 100, 0},
		{"lattice at the cap", 1, 1023, 1023, 0},
	} {
		if err := CheckWork(tc.k, tc.gridN, tc.deltaN, tc.slots); err != nil {
			t.Errorf("%s refused: %v", tc.name, err)
		}
	}
	for _, tc := range []struct {
		name                    string
		k, gridN, deltaN, slots int
	}{
		{"huge lattices", 1, 30000, 30000, 0},
		{"huge delta lattice", 1, 10, 1 << 40, 0},
		{"overflowing lattice", 1, math.MaxInt, 1, 0},
		{"lattice past the cap", 1, 1024, 10, 0},
		{"many nodes", 1 << 20, 100, 100, 0},
		{"overflowing k", math.MaxInt, 100, 100, 0},
		{"long mobile run", 100, 100, 100, 1000},
	} {
		if err := CheckWork(tc.k, tc.gridN, tc.deltaN, tc.slots); !errors.Is(err, ErrOverBudget) {
			t.Errorf("%s: got %v, want ErrOverBudget", tc.name, err)
		}
	}
	start := time.Now()
	_, err := LoadSpec(strings.NewReader(`{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[10],"grid_n":30000,"delta_n":30000}`))
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("oversized spec: got %v, want ErrOverBudget", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("oversized spec refused after %v, want under 10ms", d)
	}
}

// TestExampleSpecRuns keeps the worked example from the README and
// cmd/sweep -example genuinely runnable, with every axis exercised.
func TestExampleSpecRuns(t *testing.T) {
	spec := ExampleSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("example spec invalid: %v", err)
	}
	if testing.Short() {
		t.Skip("example run skipped in -short")
	}
	reg := obs.NewRegistry()
	rep, err := Run(spec, RunOptions{Workers: 4, Metrics: reg})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Cells) != spec.NumCells() || rep.Failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sweep_cells_completed_total"]; got != int64(spec.NumCells()) {
		t.Fatalf("sweep_cells_completed_total=%d, want %d", got, spec.NumCells())
	}
	if snap.Histograms["sweep_cell_seconds"].Count != int64(spec.NumCells()) {
		t.Fatal("cell wall-time histogram missed cells")
	}
	var tbl bytes.Buffer
	if err := WriteTable(&tbl, rep); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if !strings.Contains(tbl.String(), "δ_end") {
		t.Fatal("mobile columns missing from table")
	}
}

// TestStopChannel interrupts a run via the Stop channel and resumes it.
func TestStopChannel(t *testing.T) {
	spec := hundredCellSpec()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	stop := make(chan struct{})
	close(stop) // stop before the first pick: everything remains pending
	rep, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, Stop: stop})
	if err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("stopped run not marked interrupted")
	}
	resumed, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(resumed.Cells) != 100 || resumed.Interrupted {
		t.Fatalf("resume incomplete: %+v", resumed)
	}
}
