package eval_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/sweep"
)

// deltaVsK runs the Fig. 7 sweep the way cmd/osd -sweep does — FRA on
// the forest at Rc = 10, one seed, fault free — on w workers and projects
// the report onto the δ-versus-k rows.
func deltaVsK(ks []int, gridN, deltaN, draws int, seed int64, w int) ([]eval.DeltaVsKRow, error) {
	rep, err := sweep.Run(sweep.Spec{
		Name:        "fig7",
		Fields:      []sweep.FieldSpec{{Kind: "forest"}},
		Ks:          ks,
		Rcs:         []float64{10},
		Seeds:       []int64{seed},
		GridN:       gridN,
		DeltaN:      deltaN,
		RandomDraws: draws,
	}, sweep.RunOptions{Workers: w})
	if err != nil {
		return nil, err
	}
	return sweep.DeltaVsKRows(rep)
}

func TestDeltaVsKErrors(t *testing.T) {
	if _, err := deltaVsK(nil, 100, 100, 5, 1, 0); !errors.Is(err, eval.ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
}

func TestDeltaVsKSweep(t *testing.T) {
	rows, err := deltaVsK([]int{10, 40, 80}, 25, 25, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// δ decreases (weakly, within tolerance) with k for both curves.
	if rows[2].Delta > rows[0].Delta*1.1 {
		t.Errorf("FRA δ grew with k: %v -> %v", rows[0].Delta, rows[2].Delta)
	}
	if rows[2].Random > rows[0].Random*1.1 {
		t.Errorf("random δ grew with k: %v -> %v", rows[0].Random, rows[2].Random)
	}
	// FRA beats random at moderate k — the Fig. 7 headline.
	if rows[1].Delta >= rows[1].Random {
		t.Errorf("k=40: FRA %v not below random %v", rows[1].Delta, rows[1].Random)
	}
	for _, r := range rows {
		if r.Refined+r.Relays != r.K {
			t.Errorf("k=%d: refined+relays = %d", r.K, r.Refined+r.Relays)
		}
	}
}

// TestDeltaVsKDeterministicAcrossWorkers: the sweep must be bit-identical
// to the serial one at any GOMAXPROCS, here also the size of its worker
// pool — every cell and random draw is independently seeded and
// collected by index.
func TestDeltaVsKDeterministicAcrossWorkers(t *testing.T) {
	ks := []int{10, 25, 40}
	var rows [][]eval.DeltaVsKRow
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := deltaVsK(ks, 40, 40, 3, 42, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		rows = append(rows, got)
	}
	runtime.GOMAXPROCS(prev)
	for i := 1; i < len(rows); i++ {
		if !reflect.DeepEqual(rows[i], rows[0]) {
			t.Errorf("variant %d rows differ from serial baseline:\n%+v\nvs\n%+v",
				i, rows[i], rows[0])
		}
	}
}
