// Package bands runs a loop over [0, n) in fixed-width bands on a small
// worker pool. The bands are a function of n and the band width alone —
// never of the worker count — so a caller whose per-band work touches only
// state owned by its band (or by its worker) computes the same bits at any
// GOMAXPROCS.
package bands

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many workers Run uses for n items in bands of the
// given width: GOMAXPROCS, capped by the band count.
func Workers(n, band int) int {
	return min(runtime.GOMAXPROCS(0), (n+band-1)/band)
}

// Run runs fn(w, lo, hi) over [0, n) in fixed bands of the given width.
// Workers(n, band) workers, w numbering them from 0, pull band indices
// from an atomic counter; a single worker loops over the bands in order on
// the calling goroutine. Bands may run in any order and concurrently, so
// fn must only write state owned by its band or by worker w.
func Run(n, band int, fn func(w, lo, hi int)) {
	bands := (n + band - 1) / band
	workers := Workers(n, band)
	if workers <= 1 {
		for b := 0; b < bands; b++ {
			fn(0, b*band, min((b+1)*band, n))
		}
		return
	}
	// The band counter and the wait group escape to the heap together, as
	// one allocation per call.
	var pool struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func(w int) {
			defer pool.wg.Done()
			for {
				b := int(pool.next.Add(1)) - 1
				if b >= bands {
					return
				}
				fn(w, b*band, min((b+1)*band, n))
			}
		}(w)
	}
	pool.wg.Wait()
}
