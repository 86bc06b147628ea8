package eval

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
)

func TestDegradationSweepFaultRows(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	rows, err := DegradationSweep(forest, engine.DefaultOptions(), 100, 6, 25, []float64{0, 0.3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	base, faulty := rows[0], rows[1]
	if base.Rate != 0 || faulty.Rate != 0.3 {
		t.Fatalf("rates = %v, %v", base.Rate, faulty.Rate)
	}
	if base.Deaths != 0 || base.AliveEnd != 100 {
		t.Errorf("fault-free row lost nodes: %+v", base)
	}
	if base.ConnectedUptime != 1 || base.SinkReach != 1 {
		t.Errorf("fault-free row degraded: %+v", base)
	}
	if base.DeltaEnd <= 0 || faulty.DeltaEnd <= 0 {
		t.Errorf("non-positive δ: %v, %v", base.DeltaEnd, faulty.DeltaEnd)
	}
	if faulty.Deaths == 0 {
		t.Errorf("30%% failure rate killed nobody: %+v", faulty)
	}
	if faulty.AliveEnd != 100-faulty.Deaths {
		t.Errorf("alive/deaths inconsistent: %+v", faulty)
	}
}

func TestDegradationSweepDeterministic(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	r1, err := DegradationSweep(forest, engine.DefaultOptions(), 36, 5, 20, []float64{0.2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DegradationSweep(forest, engine.DefaultOptions(), 36, 5, 20, []float64{0.2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] {
		t.Fatalf("sweep not reproducible:\n%+v\n%+v", r1[0], r2[0])
	}
}

func TestDegradationSweepBadParams(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	if _, err := DegradationSweep(forest, engine.DefaultOptions(), 0, 5, 20, []float64{0}, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("k=0: want ErrBadParams, got %v", err)
	}
	if _, err := DegradationSweep(forest, engine.DefaultOptions(), 9, 5, 20, nil, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("no rates: want ErrBadParams, got %v", err)
	}
}

func TestWriteDegradationOutputs(t *testing.T) {
	rows := []DegradationRow{
		{Rate: 0, DeltaEnd: 50, DeltaMean: 60, ConnectedUptime: 1, SinkReach: 1, AliveEnd: 49},
		{Rate: 0.2, DeltaEnd: 70, DeltaMean: 75, ConnectedUptime: 0.8, SinkReach: 0.9, AliveEnd: 40, Deaths: 9, Repairs: 6, Rebuilds: 2},
	}
	var tbl bytes.Buffer
	if err := WriteDegradationTable(&tbl, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "sink_reach") || !strings.Contains(tbl.String(), "0.20") {
		t.Errorf("table missing content:\n%s", tbl.String())
	}
	var csv bytes.Buffer
	if err := WriteDegradationCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "rate,") {
		t.Errorf("csv malformed:\n%s", csv.String())
	}
}
