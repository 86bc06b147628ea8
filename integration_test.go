package repro

import (
	"math"
	"testing"

	"repro/internal/sweep"
)

// Integration tests exercising whole experiment pipelines end to end at
// reduced resolution — the executable form of EXPERIMENTS.md's claims.

// TestIntegrationFig7Shape checks the Fig. 7 headline on a coarse sweep:
// FRA beats random deployment by a growing margin in the operating range,
// and both curves decrease with k.
func TestIntegrationFig7Shape(t *testing.T) {
	rep, err := sweep.Run(sweep.Spec{
		Name:        "fig7",
		Fields:      []sweep.FieldSpec{{Kind: "forest"}},
		Ks:          []int{50, 100, 150},
		Rcs:         []float64{10},
		Seeds:       []int64{1},
		GridN:       40,
		DeltaN:      40,
		RandomDraws: 3,
	}, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sweep.DeltaVsKRows(rep)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if !r.Connected {
			t.Errorf("k=%d: FRA placement disconnected", r.K)
		}
		if r.Delta >= r.Random {
			t.Errorf("k=%d: FRA δ=%v not below random δ=%v", r.K, r.Delta, r.Random)
		}
		if i > 0 && r.Delta >= rows[i-1].Delta {
			t.Errorf("FRA δ not decreasing: k=%d %v -> k=%d %v",
				rows[i-1].K, rows[i-1].Delta, r.K, r.Delta)
		}
	}
}

// TestIntegrationFig10Shape checks the Fig. 10 headline: δ decreases from
// the initial grid, the network stays connected every slot, and the
// converged CMA sits within a factor of 2 of the centralized FRA.
func TestIntegrationFig10Shape(t *testing.T) {
	forest := NewForest(DefaultForestConfig())
	w, err := NewWorld(forest, GridLayout(forest.Bounds(), 100), DefaultWorldOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DeltaVsTime(w, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	d0 := rows[0].Delta
	minD := math.Inf(1)
	for _, r := range rows {
		if !r.Connected {
			t.Errorf("t=%v: disconnected", r.T)
		}
		minD = math.Min(minD, r.Delta)
	}
	if minD >= d0 {
		t.Errorf("δ never improved: start %v, min %v", d0, minD)
	}
	// CMA vs FRA on the final slice.
	fraOpts := DefaultFRAOptions(100)
	fraOpts.GridN = 40
	endField := sliceAt(forest, w.Time())
	p, err := FRA(endField, fraOpts)
	if err != nil {
		t.Fatal(err)
	}
	fra, err := Evaluate(endField, p, fraOpts.Rc, 40)
	if err != nil {
		t.Fatal(err)
	}
	cma := rows[len(rows)-1].Delta
	if ratio := cma / fra.Delta; ratio > 2 {
		t.Errorf("CMA/FRA ratio = %v, want < 2 (paper: 1.16)", ratio)
	}
}

// sliceAt freezes a DynField at time t via the public API types.
func sliceAt(d DynField, t float64) Field {
	return fieldFunc{d: d, t: t}
}

type fieldFunc struct {
	d DynField
	t float64
}

func (f fieldFunc) Eval(p Vec2) float64 { return f.d.EvalAt(p, f.t) }
func (f fieldFunc) Bounds() Rect        { return f.d.Bounds() }

// TestIntegrationFig3Shape checks the Fig. 3 headline end to end through
// the facade.
func TestIntegrationFig3Shape(t *testing.T) {
	f := Peaks(Square(100))
	opts := DefaultCWDOptions(16)
	opts.GridN = 30
	rows, err := CompareCWD(f, opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Delta >= rows[0].Delta {
		t.Errorf("CWD δ=%v not below uniform δ=%v", rows[1].Delta, rows[0].Delta)
	}
	if rows[1].TotalCurvature <= rows[0].TotalCurvature {
		t.Errorf("CWD Σ|G|=%v not above uniform %v",
			rows[1].TotalCurvature, rows[0].TotalCurvature)
	}
}

// TestIntegrationCentralCritique checks the measurable form of the
// paper's Section 5 argument: over a short horizon with replanning, the
// fully local CMA keeps the network connected every slot while the
// centralized strawman does not.
func TestIntegrationCentralCritique(t *testing.T) {
	forest := NewForest(DefaultForestConfig())
	rows, err := CompareMobile(forest, 100, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ConnectedFrac != 1 {
		t.Errorf("CMA connected fraction = %v", rows[0].ConnectedFrac)
	}
	if rows[1].ConnectedFrac == 1 {
		t.Log("centralized transit happened to preserve connectivity this run")
	}
	if rows[0].Messages >= rows[1].Messages*10 {
		t.Logf("note: CMA hello volume %d vs central reports %d (different message kinds)",
			rows[0].Messages, rows[1].Messages)
	}
}
