package sweep

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// resultBits lists every float of a result as its bit pattern.
func resultBits(r Result) []uint64 {
	fs := []float64{r.Rc, r.FaultRate, r.Delta, r.DeltaRandom}
	if m := r.Mobile; m != nil {
		fs = append(fs, m.DeltaEnd, m.DeltaMean, m.ConvergenceT, m.ConnectedUptime,
			m.SinkReach, m.Energy, m.DeltaPerLength)
	}
	bits := make([]uint64, len(fs))
	for i, f := range fs {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

// TestEnvReuseBitIdentical runs the example grid — plain fields, a
// plume, a trace replay, static and mobile phases — through Run, whose
// workers share one environment and reference while their cells are on
// it, at 1 and 4 workers, and demands every cell equal, float by float
// in bits, to RunCell on a fresh environment.
func TestEnvReuseBitIdentical(t *testing.T) {
	spec := ExampleSpec()
	cells := spec.Cells()
	fresh := make([]Result, len(cells))
	for i, c := range cells {
		fresh[i] = RunCell(&spec, c, nil)
	}
	for _, w := range []int{1, 4} {
		rep, err := Run(spec, RunOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(rep.Cells) != len(fresh) {
			t.Fatalf("workers=%d: %d cells, want %d", w, len(rep.Cells), len(fresh))
		}
		for i, got := range rep.Cells {
			want := fresh[i]
			if got.Err != "" {
				t.Errorf("workers=%d cell %d failed: %s", w, i, got.Err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(resultBits(got), resultBits(want)) {
				t.Errorf("workers=%d cell %d: reused %+v, fresh %+v", w, i, got, want)
			}
		}
	}

	// The cache does hold: cells on one environment share its reference,
	// and a new environment replaces it.
	var cache envCache
	first, err := cache.load(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if env, err := cache.load(cells[1]); err != nil || env != first {
		t.Errorf("same environment: err %v, reused %v", err, env == first)
	}
	if env, err := cache.load(cells[len(cells)-1]); err != nil || env == first {
		t.Errorf("new environment: err %v, replaced %v", err, env != first)
	}
}

// TestDeltaVsKRowsFailedCell: a Fig. 7 projection of a report with a
// failed cell refuses to print it as a row of zeros and names the first
// failed cell instead.
func TestDeltaVsKRowsFailedCell(t *testing.T) {
	rep, err := Run(Spec{
		Name:   "fig7-failing",
		Fields: []FieldSpec{{Kind: "peaks"}},
		Traces: []TraceSpec{{Path: filepath.Join(t.TempDir(), "missing.csv")}},
		Ks:     []int{5, 8},
		Rcs:    []float64{40},
		GridN:  10,
		DeltaN: 10,
	}, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 2 {
		t.Fatalf("failed cells = %d, want the two trace cells", rep.Failed)
	}
	rows, err := DeltaVsKRows(rep)
	if err == nil {
		t.Fatalf("no error; rows %+v", rows)
	}
	for _, want := range []string{"cell 2", "trace:missing.csv", "k=5", "missing.csv"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if rows != nil {
		t.Errorf("rows %+v returned beside the error", rows)
	}

	rep.Cells, rep.Failed = rep.Cells[:2], 0
	rows, err = DeltaVsKRows(rep)
	if err != nil || len(rows) != 2 || rows[1].K != 8 || !(rows[1].Delta > 0) {
		t.Errorf("healthy cells: rows %+v, err %v", rows, err)
	}
}
