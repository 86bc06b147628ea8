package bands

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunCoversEachIndexOnce checks that Run visits every index of [0, n)
// exactly once, in bands that are a function of n and the width alone, and
// that every worker index is below Workers(n, band).
func TestRunCoversEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, tc := range []struct{ n, band int }{{0, 8}, {1, 8}, {8, 8}, {9, 8}, {100, 7}, {1000, 64}} {
			seen := make([]atomic.Int32, tc.n)
			workers := Workers(tc.n, tc.band)
			var bad atomic.Bool
			Run(tc.n, tc.band, func(w, lo, hi int) {
				if w < 0 || w >= max(workers, 1) || lo%tc.band != 0 || hi != min(lo+tc.band, tc.n) {
					bad.Store(true)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			if bad.Load() {
				t.Errorf("GOMAXPROCS=%d n=%d band=%d: a band or worker index out of range", procs, tc.n, tc.band)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d band=%d: index %d visited %d times", procs, tc.n, tc.band, i, c)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}
