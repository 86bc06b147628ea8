package eval

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
)

func refField() field.Field {
	return field.NewForest(field.DefaultForestConfig()).Reference()
}

func TestDeltaVsTime(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 64), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DeltaVsTime(w, 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // initial row + 5 slots
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].T != 0 {
		t.Errorf("first row T = %v", rows[0].T)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].T != float64(i) {
			t.Errorf("row %d T = %v", i, rows[i].T)
		}
		if rows[i].Delta <= 0 {
			t.Errorf("row %d δ = %v", i, rows[i].Delta)
		}
	}
	for i, r := range rows {
		if len(r.Positions) != 64 {
			t.Errorf("row %d positions = %d", i, len(r.Positions))
		}
	}
	if !slices.Equal(rows[0].Positions, field.GridLayout(forest.Bounds(), 64)) {
		t.Error("row 0 does not hold the initial layout: the rows share the engine's positions")
	}
	// slots = 0 is the state before the first step alone.
	only, err := DeltaVsTime(w, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || only[0].T != rows[len(rows)-1].T || only[0].Delta != rows[len(rows)-1].Delta {
		t.Errorf("slots=0 rows = %+v, want the last row again", only)
	}
}

// TestDeltaVsTimeBelowThreeAlive: once a schedule leaves 2 of 9 nodes
// alive, DeltaVsTime's rows carry no δ, and both writers leave exactly
// that cell blank. TestDeltaVsTime demands a δ on every row, so the
// faulted run is its own test.
func TestDeltaVsTimeBelowThreeAlive(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	const k, killAt = 9, 2
	var kills []fault.Event
	for i := 2; i < k; i++ {
		kills = append(kills, fault.Event{Slot: killAt, Node: i})
	}
	opts := engine.DefaultOptions()
	opts.Faults = fault.NewInjector(k, fault.Config{Schedule: kills})
	w, err := engine.New(forest, field.GridLayout(forest.Bounds(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DeltaVsTime(w, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		wantAlive := k
		if i > killAt { // row i ends slot i-1
			wantAlive = 2
		}
		if r.Alive != wantAlive {
			t.Errorf("row %d alive = %d, want %d", i, r.Alive, wantAlive)
		}
		if hasDelta := !math.IsNaN(r.Delta); hasDelta != (wantAlive >= 3) || hasDelta && r.Delta <= 0 {
			t.Errorf("row %d (%d alive) δ = %v", i, wantAlive, r.Delta)
		}
	}

	var csv bytes.Buffer
	if err := WriteDeltaVsTimeCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	for i, r := range rows {
		delta := ""
		if !math.IsNaN(r.Delta) {
			delta = fmt.Sprintf("%g", r.Delta)
		}
		want := fmt.Sprintf("%g,%s,%d,%g,%v", r.T, delta, r.Moved, r.MeanDisplacement, r.Connected)
		if lines[i+1] != want {
			t.Errorf("csv row %d = %q, want %q", i, lines[i+1], want)
		}
	}

	var tbl bytes.Buffer
	if err := WriteDeltaVsTimeTable(&tbl, rows); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSuffix(tbl.String(), "\n"), "\n")
	// The rows are ASCII; the header's column offsets count runes.
	head := lines[0]
	deltaAt := strings.Index(head, "δ")
	movedAt := utf8.RuneCountInString(head[:strings.Index(head, "moved")])
	for i, r := range rows {
		line := lines[i+1]
		if got, want := line[:deltaAt], fmt.Sprintf("%.0f", r.T); strings.TrimSpace(got) != want {
			t.Errorf("table row %d t = %q, want %q", i, got, want)
		}
		delta := ""
		if !math.IsNaN(r.Delta) {
			delta = fmt.Sprintf("%.1f", r.Delta)
		}
		if got := line[deltaAt:movedAt]; strings.TrimSpace(got) != delta {
			t.Errorf("table row %d δ cell = %q, want %q", i, got, delta)
		}
		want := fmt.Sprintf("%d %.3f %v", r.Moved, r.MeanDisplacement, r.Connected)
		if got := strings.Join(strings.Fields(line[movedAt:]), " "); got != want {
			t.Errorf("table row %d = %q after δ, want %q", i, got, want)
		}
	}
}

func TestDeltaVsTimeBadParams(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 4), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaVsTime(w, -1, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
	if _, err := DeltaVsTime(w, 5, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
}

func TestConvergenceTime(t *testing.T) {
	rows := []DeltaVsTimeRow{
		{T: 0},
		{T: 1, MeanDisplacement: 0.9},
		{T: 2, MeanDisplacement: 0.5},
		{T: 3, MeanDisplacement: 0.05},
		{T: 4, MeanDisplacement: 0.04},
	}
	conv, ok := ConvergenceTime(rows)
	if !ok || conv != 3 {
		t.Errorf("convergence = %v/%v, want 3/true", conv, ok)
	}
	// A late burst of movement resets convergence.
	rows = append(rows, DeltaVsTimeRow{T: 5, MeanDisplacement: 0.8})
	if _, ok := ConvergenceTime(rows); ok {
		t.Error("series with late movement reported converged")
	}
	if _, ok := ConvergenceTime(nil); ok {
		t.Error("empty series reported converged")
	}
}

func TestCompareCWD(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	opts := core.DefaultCWDOptions(16)
	opts.GridN = 30
	opts.Iterations = 15
	rows, err := CompareCWD(f, opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Pattern != "uniform" || rows[1].Pattern != "cwd" {
		t.Errorf("patterns = %s,%s", rows[0].Pattern, rows[1].Pattern)
	}
	if rows[1].TotalCurvature <= rows[0].TotalCurvature {
		t.Errorf("CWD Σ|G| %v not above uniform %v",
			rows[1].TotalCurvature, rows[0].TotalCurvature)
	}
	if rows[1].Delta >= rows[0].Delta {
		t.Errorf("CWD δ %v not below uniform %v", rows[1].Delta, rows[0].Delta)
	}
}

func TestTableWriters(t *testing.T) {
	kRows := []DeltaVsKRow{{K: 10, Delta: 1.5, Random: 2.5, Refined: 6, Relays: 4, Connected: true}}
	tRows := []DeltaVsTimeRow{{T: 1, Delta: 3.5, Moved: 9, MeanDisplacement: 0.25, Connected: true}}
	cRows := []CWDRow{{Pattern: "cwd", Delta: 1, TotalCurvature: 2, BalanceResidual: 3, MeanNNDist: 4}}

	var buf bytes.Buffer
	if err := WriteDeltaVsKTable(&buf, "fra", kRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "δ(FRA)") || !strings.Contains(buf.String(), "10") {
		t.Errorf("table = %q", buf.String())
	}

	buf.Reset()
	if err := WriteDeltaVsKCSV(&buf, "fra", kRows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "k,delta_fra,") {
		t.Errorf("csv = %q", buf.String())
	}
	if !strings.Contains(buf.String(), "10,1.5,2.5,6,4,true") {
		t.Errorf("csv row missing: %q", buf.String())
	}

	// The δ column is named after the strategy under test.
	buf.Reset()
	if err := WriteDeltaVsKTable(&buf, "lloyd", kRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "δ(LLOYD)") {
		t.Errorf("lloyd table = %q", buf.String())
	}
	buf.Reset()
	if err := WriteDeltaVsKCSV(&buf, "lloyd", kRows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "k,delta_lloyd,delta_random,") {
		t.Errorf("lloyd csv = %q", buf.String())
	}

	buf.Reset()
	if err := WriteDeltaVsTimeTable(&buf, tRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "t(min)") {
		t.Errorf("table = %q", buf.String())
	}

	buf.Reset()
	if err := WriteDeltaVsTimeCSV(&buf, tRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,3.5,9,0.25,true") {
		t.Errorf("csv = %q", buf.String())
	}

	buf.Reset()
	if err := WriteCWDTable(&buf, cRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cwd") {
		t.Errorf("table = %q", buf.String())
	}
}
