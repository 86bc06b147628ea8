package surface

import (
	"sync"
	"sync/atomic"

	"repro/internal/bands"
	"repro/internal/field"
	"repro/internal/geom"
)

// Reference is a field whose lattices of values depend on the field alone
// and are therefore filled once and shared: FRA's (n+1)×(n+1) vertex
// lattice (NewLocalErrorGrid) and δ's n×n midpoint lattice (Delta's f
// side), one of each per size n. Each is filled on first use by the same
// routine a direct fill runs (fillLattice), so its values are a direct
// fill's bits; concurrent first uses wait for that one fill. Eval and
// Bounds are the wrapped field's.
//
// Wrap the reference of a workload that places or integrates against one
// field many times: a served field spec, a sweep cell's t = 0 slice, a
// δ-vs-k sweep's field. Do not wrap an approximation: it changes with
// every placement, and a TIN passed as Delta's g is scan-filled only when
// it is not wrapped.
//
// A Reference also keeps state other packages derive from the field
// alone (Derived), such as FRA's budget-free trajectories; it lives and
// dies with the Reference.
type Reference struct {
	f       field.Field
	mu      sync.Mutex
	fills   map[latticeKey]*latticeFill
	derived map[any]Derived
	bytes   atomic.Int64
}

// Derived is state derived from a Reference's field alone and kept with
// it. Bytes reports its current size; it must be safe for concurrent use.
type Derived interface {
	Bytes() int64
}

// latticeKey names one lattice of a Reference: its divisions per side and
// whether its nodes are the vertices or the cell midpoints.
type latticeKey struct {
	n      int
	vertex bool
}

// latticeFill is one lattice, filled once.
type latticeFill struct {
	once sync.Once
	vals []float64
}

// NewReference wraps f.
func NewReference(f field.Field) *Reference {
	return &Reference{f: f, fills: make(map[latticeKey]*latticeFill), derived: make(map[any]Derived)}
}

// Eval implements field.Field.
func (r *Reference) Eval(p geom.Vec2) float64 { return r.f.Eval(p) }

// Bounds implements field.Field.
func (r *Reference) Bounds() geom.Rect { return r.f.Bounds() }

// Bytes returns the size of the lattices filled so far, their float64
// values times 8, plus the Bytes of every Derived value.
func (r *Reference) Bytes() int64 {
	n := r.bytes.Load()
	r.mu.Lock()
	for _, d := range r.derived {
		n += d.Bytes()
	}
	r.mu.Unlock()
	return n
}

// Derived returns the value kept under key, a comparable value, storing
// mk() first when there is none. mk runs under the Reference's lock, so
// it should only allocate.
func (r *Reference) Derived(key any, mk func() Derived) Derived {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.derived[key]
	if d == nil {
		d = mk()
		r.derived[key] = d
	}
	return d
}

// lattice returns the values of the n-division vertex or midpoint lattice,
// row-major, filling it on first use. The slice is shared: read only.
func (r *Reference) lattice(n int, vertex bool) []float64 {
	r.mu.Lock()
	l := r.fills[latticeKey{n, vertex}]
	if l == nil {
		l = new(latticeFill)
		r.fills[latticeKey{n, vertex}] = l
	}
	r.mu.Unlock()
	l.once.Do(func() {
		xs, ys := latticeNodes(r.f.Bounds(), n, vertex)
		l.vals = fillLattice(r.f, xs, ys)
		r.bytes.Add(int64(len(l.vals)) * 8)
	})
	return l.vals
}

// latticeNodes returns the node coordinates of region's n-division
// lattice: the n+1 vertices per side, or the n cell midpoints.
func latticeNodes(region geom.Rect, n int, vertex bool) (xs, ys []float64) {
	m := n
	if vertex {
		m = n + 1
	}
	xs, ys = make([]float64, m), make([]float64, m)
	dx, dy := region.Width()/float64(n), region.Height()/float64(n)
	for i := range xs {
		if vertex {
			xs[i] = region.Min.X + region.Width()*float64(i)/float64(n)
			ys[i] = region.Min.Y + region.Height()*float64(i)/float64(n)
		} else {
			xs[i] = region.Min.X + dx*(float64(i)+0.5)
			ys[i] = region.Min.Y + dy*(float64(i)+0.5)
		}
	}
	return xs, ys
}

// fillLattice returns f(xs[i], ys[j]) row-major, filled band by band
// (latticeScan).
func fillLattice(f field.Field, xs, ys []float64) []float64 {
	vals := make([]float64, len(xs)*len(ys))
	s := newLatticeScan(f, xs, ys)
	bands.Run(len(xs), bandRows, func(w, lo, hi int) {
		s.rows(w, lo, hi, vals[lo*len(ys):])
	})
	return vals
}
