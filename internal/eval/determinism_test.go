package eval

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/field"
)

// TestDeltaVsKDeterministicAcrossWorkers: the parallel sweep must be
// bit-identical to the serial one at any GOMAXPROCS, which sets the size
// of its worker pool — every (k, draw) task is independently seeded and
// collected by index.
func TestDeltaVsKDeterministicAcrossWorkers(t *testing.T) {
	f := field.NewForest(field.DefaultForestConfig()).Reference()
	ks := []int{10, 25, 40}
	opts := DeltaVsKOptions{Rc: 10, GridN: 40, DeltaN: 40, RandomDraws: 3, Seed: 42}

	var rows [][]DeltaVsKRow
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := DeltaVsK(f, ks, opts)
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

func TestConvergenceTimeEmpty(t *testing.T) {
	if tm, ok := ConvergenceTime(nil); ok || tm != 0 {
		t.Errorf("ConvergenceTime(nil) = (%v,%v), want (0,false)", tm, ok)
	}
}
