package surface

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
)

// referenceFields are the environments a server names: the four field
// kinds at their default settings and a slice of the splitting plume.
func referenceFields() map[string]field.Field {
	region := geom.Square(100)
	return map[string]field.Field{
		"forest":  field.NewForest(field.DefaultForestConfig()).Reference(),
		"peaks":   field.Peaks(region),
		"terrain": field.NewTerrain(region, 5, 0.55, 1),
		"ridge":   field.Ridge(region, region.Min, region.Max, 5, 100.0/8),
		"plume":   field.Slice(field.PlumeScenario(region, 1, 2, 0.6, 0.8, 0, 4), 7.5),
	}
}

// sampledTIN reconstructs f from its corners and k seeded random points.
func sampledTIN(t *testing.T, f field.Field, k int, seed int64) *TIN {
	t.Helper()
	r := f.Bounds()
	rng := rand.New(rand.NewSource(seed))
	tin := NewTIN(r)
	for _, c := range r.Corners() {
		if err := tin.Add(field.Sample{Pos: c, Z: f.Eval(c)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		p := geom.V2(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height())
		if err := tin.Add(field.Sample{Pos: p, Z: f.Eval(p)}); err != nil {
			t.Fatal(err)
		}
	}
	return tin
}

// sameBits reports the first index where a and b differ in bits, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestReferenceMatchesDirect checks that δ and FRA's reference lattice
// through a Reference are the bits of a direct fill, on its first (cold)
// and later (warm) uses, and that Bytes counts each filled lattice once.
func TestReferenceMatchesDirect(t *testing.T) {
	for name, f := range referenceFields() {
		tin := sampledTIN(t, f, 60, 3)
		ref := NewReference(f)
		var want int64
		for _, n := range []int{1, 37, 100} {
			wantDelta := Delta(f, tin, n)
			wantRef := NewLocalErrorGrid(f, n).ref
			for _, pass := range []string{"cold", "warm"} {
				if got := Delta(ref, tin, n); math.Float64bits(got) != math.Float64bits(wantDelta) {
					t.Errorf("%s n=%d %s: Delta = %v, direct %v", name, n, pass, got, wantDelta)
				}
				if k := sameBits(NewLocalErrorGrid(ref, n).ref, wantRef); k >= 0 {
					t.Errorf("%s n=%d %s: vertex lattice differs from a direct fill at %d", name, n, pass, k)
				}
			}
			want += int64((n+1)*(n+1)+n*n) * 8
		}
		if got := ref.Bytes(); got != want {
			t.Errorf("%s: Bytes = %d, want %d", name, got, want)
		}
	}
}

// TestReferenceConcurrentFirstUse starts every use of a cold Reference at
// once: all goroutines must get a direct fill's bits from one shared fill
// per lattice.
func TestReferenceConcurrentFirstUse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := referenceFields()["plume"]
	tin := sampledTIN(t, f, 80, 5)
	const n, workers = 60, 8
	wantDelta := Delta(f, tin, n)
	wantRef := NewLocalErrorGrid(f, n).ref
	ref := NewReference(f)
	deltas := make([]float64, workers)
	grids := make([]*LocalErrorGrid, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if w%2 == 0 {
				deltas[w] = Delta(ref, tin, n)
				grids[w] = NewLocalErrorGrid(ref, n)
			} else {
				grids[w] = NewLocalErrorGrid(ref, n)
				deltas[w] = Delta(ref, tin, n)
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := range deltas {
		if math.Float64bits(deltas[w]) != math.Float64bits(wantDelta) {
			t.Errorf("worker %d: Delta = %v, direct %v", w, deltas[w], wantDelta)
		}
		if k := sameBits(grids[w].ref, wantRef); k >= 0 {
			t.Errorf("worker %d: vertex lattice differs from a direct fill at %d", w, k)
		}
		if &grids[w].ref[0] != &grids[0].ref[0] {
			t.Errorf("worker %d: vertex lattice was filled again", w)
		}
	}
	if got, want := ref.Bytes(), int64((n+1)*(n+1)+n*n)*8; got != want {
		t.Errorf("Bytes = %d, want %d: a lattice was filled more than once", got, want)
	}
}
