package engine

// forceLatticeShare replaces the shared sensing lattice's derived enable
// rule with a constant (sharing on or off wherever it is valid) until the
// returned restore function runs.
func forceLatticeShare(on bool) (restore func()) {
	prev := latticeShareRule
	latticeShareRule = func(_, _ float64) bool { return on }
	return func() { latticeShareRule = prev }
}

// memoHits returns how many peak fits the shared memo has served across
// the engine's fitters so far.
func (e *Engine) memoHits() int64 {
	var n int64
	for _, f := range e.fitters {
		n += f.MemoHits()
	}
	return n
}
