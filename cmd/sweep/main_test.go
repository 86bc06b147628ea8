package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestWriteExampleRoundTrips checks that the -example output is a valid
// spec the strict (DisallowUnknownFields) loader accepts unchanged, and
// that it exercises every spec field — strategies axis and a non-trivial
// fault profile included — so the worked example stays a complete tour
// of the format as the Spec grows.
func TestWriteExampleRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := writeExample(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	spec, err := sweep.LoadSpec(&buf)
	if err != nil {
		t.Fatalf("example spec does not load: %v", err)
	}
	if spec.Name != "example" || spec.NumCells() == 0 {
		t.Fatalf("unexpected example spec: %+v", spec)
	}

	// Every field of the Spec must be exercised by the example: a newly
	// added knob that the example leaves zero fails here until the worked
	// example (and thus the README and CI smoke) covers it.
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("example spec leaves %s at its zero value", v.Type().Field(i).Name)
		}
	}
	if !reflect.DeepEqual(spec.Strategies, []string{"fra", "lloyd", "tour"}) {
		t.Fatalf("example strategies did not round-trip: %v", spec.Strategies)
	}
	var faulty bool
	for _, fp := range spec.Faults {
		faulty = faulty || fp.Rate > 0
	}
	if !faulty {
		t.Fatalf("example spec has no non-trivial fault profile: %+v", spec.Faults)
	}

	// The loader is strict: the same document with one typo'd knob is
	// rejected instead of silently sweeping the wrong grid.
	typo := strings.Replace(raw, `"name"`, `"nam"`, 1)
	if _, err := sweep.LoadSpec(strings.NewReader(typo)); err == nil {
		t.Fatal("loader accepted an unknown field")
	}
}

// TestRealMainArgErrors pins the flag-combination failures, which
// checkFlags refuses before the run starts, and the absent spec file,
// which only realMain can find.
func TestRealMainArgErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"missing -spec", config{Quiet: true}, "-spec"},
		{"-resume without -checkpoint", config{SpecPath: "x.json", Resume: true, Quiet: true}, "-checkpoint"},
		{"-serve with -join", config{Serve: ":0", Join: "http://x", Quiet: true}, "mutually exclusive"},
		{"-join with -spec", config{Join: "http://x", SpecPath: "x.json", Quiet: true}, "drop -spec"},
		{"-serve without -spec", config{Serve: ":0", Quiet: true}, "-spec"},
	} {
		if err := checkFlags(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v", tc.name, err)
		}
	}
	if err := realMain(config{SpecPath: filepath.Join(t.TempDir(), "absent.json"), Quiet: true}, nil); err == nil {
		t.Fatal("absent spec file: want error")
	}
}

// TestStrategiesFlag drives the -strategies override end to end: a
// valid list replaces the spec's axis before the run, and an unknown
// name is rejected with the registered list.
func TestStrategiesFlag(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{
		Name:   "cli-strat",
		Fields: []sweep.FieldSpec{{Kind: "peaks"}},
		Ks:     []int{4},
		Rcs:    []float64{50},
		GridN:  10,
		DeltaN: 10,
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	err = realMain(config{SpecPath: specPath, Strategies: "nope", Quiet: true}, nil)
	if err == nil {
		t.Fatal("-strategies nope accepted")
	}
	for _, want := range []string{"bad -strategies", `unknown strategy "nope"`, "registered:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}

	outPath := filepath.Join(dir, "out.json")
	if err := realMain(config{
		SpecPath: specPath, Strategies: "lloyd, random", Workers: 1, Out: outPath, Quiet: true,
	}, nil); err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	rawOut, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawOut, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || rep.Cells[0].Strategy != "lloyd" || rep.Cells[1].Strategy != "random" {
		t.Fatalf("-strategies override did not shape the grid: %+v", rep.Cells)
	}
}

// TestWriteOutputFormats drives format selection — explicit override,
// extension inference, the unknown-format error — over a fabricated
// report, checking each renderer actually produced its format.
func TestWriteOutputFormats(t *testing.T) {
	rep := &sweep.Report{
		Name:  "fmt",
		Total: 1,
		Cells: []sweep.Result{{Index: 0, Field: "peaks", K: 3, Rc: 10, Strategy: "fra", Seed: 1, Delta: 42, Connected: true}},
	}
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "out.json")
	if err := writeOutput(rep, jsonPath, ""); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed sweep.Report
	if err := json.Unmarshal(raw, &parsed); err != nil || parsed.Name != "fmt" {
		t.Fatalf("json output did not round-trip: %v (%s)", err, raw)
	}

	csvPath := filepath.Join(dir, "out.csv")
	if err := writeOutput(rep, csvPath, ""); err != nil {
		t.Fatal(err)
	}
	if raw, _ = os.ReadFile(csvPath); !strings.HasPrefix(string(raw), "index,field,k,") {
		t.Fatalf("csv output missing header: %s", raw)
	}

	tablePath := filepath.Join(dir, "out.txt")
	if err := writeOutput(rep, tablePath, "table"); err != nil {
		t.Fatal(err)
	}
	if raw, _ = os.ReadFile(tablePath); !strings.Contains(string(raw), "δ(rand)") {
		t.Fatalf("table output missing header: %s", raw)
	}

	if err := writeOutput(rep, filepath.Join(dir, "out.xml"), "xml"); err == nil ||
		!strings.Contains(err.Error(), "unknown -format") {
		t.Fatalf("unknown format: got %v", err)
	}
}

// TestServeJoinEndToEnd drives the CLI's distributed mode in-process: a
// -serve coordinator on a loopback port, two -join workers, and the
// written aggregate byte-identical to a plain local run of the same
// spec.
func TestServeJoinEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real grid over loopback HTTP")
	}
	dir := t.TempDir()
	spec := sweep.Spec{
		Name:   "cli-dist",
		Fields: []sweep.FieldSpec{{Kind: "peaks"}, {Kind: "ridge"}},
		Ks:     []int{3, 5},
		Rcs:    []float64{40},
		Seeds:  []int64{1},
		GridN:  10,
		DeltaN: 10,
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	localOut := filepath.Join(dir, "local.json")
	if err := realMain(config{SpecPath: specPath, Workers: 2, Out: localOut, Quiet: true}, nil); err != nil {
		t.Fatal(err)
	}

	// Reserve a loopback port, release it, and hand it to -serve. The
	// joining workers' retry budget rides out the startup gap.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	distOut := filepath.Join(dir, "dist.json")
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- realMain(config{
			SpecPath: specPath, Serve: addr, Out: distOut,
			Checkpoint: filepath.Join(dir, "dist.ckpt"), Quiet: true,
		}, nil)
	}()
	// Wait until the coordinator answers /status before joining workers,
	// so a fast sweep cannot finish and shut down while a worker is
	// still backing off from a pre-listen connection failure.
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/status")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Since(start) > 30*time.Second {
			t.Fatalf("coordinator never came up: %v", err)
		}
	}
	var joins [2]chan error
	for i := range joins {
		joins[i] = make(chan error, 1)
		ch := joins[i]
		go func() {
			ch <- realMain(config{Join: "http://" + addr, Quiet: true}, nil)
		}()
	}
	for i, ch := range joins {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("worker %d did not finish", i)
		}
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not finish")
	}

	want, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("-serve/-join aggregate differs from local run")
	}
}

// TestRealMainRunsSpec runs a tiny one-cell spec end to end through
// realMain — load, run, write — with metrics attached, mirroring the CLI
// path without the flag plumbing.
func TestRealMainRunsSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep cell")
	}
	dir := t.TempDir()
	spec := sweep.Spec{
		Name:   "cli",
		Fields: []sweep.FieldSpec{{Kind: "peaks"}},
		Ks:     []int{4},
		Rcs:    []float64{50},
		GridN:  10,
		DeltaN: 10,
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.json")
	reg := obs.NewRegistry()
	if err := realMain(config{SpecPath: specPath, Workers: 1, Out: outPath, Quiet: true}, reg); err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	rawOut, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawOut, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Failed != 0 || rep.Cells[0].Delta <= 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if snap := reg.Snapshot(); snap.Counters["sweep_cells_completed_total"] != 1 {
		t.Fatalf("metrics not wired: %+v", snap.Counters)
	}
}
