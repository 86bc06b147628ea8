package engine

// forceLatticeShare replaces the shared sensing lattice's derived enable
// rule with a constant (sharing on or off wherever it is valid) until the
// returned restore function runs.
func forceLatticeShare(on bool) (restore func()) {
	prev := latticeShareRule
	latticeShareRule = func(_, _ float64) bool { return on }
	return func() { latticeShareRule = prev }
}

// latticeShared reports whether any slot so far has sensed through the
// shared sensing lattice.
func (e *Engine) latticeShared() bool { return e.lattice.Rows() > 0 }
