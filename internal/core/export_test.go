package core

import "repro/internal/surface"

// WithFullGridUpdates returns a copy of opts with the incremental
// new-triangle refresh disabled, so tests can compare the two paths.
func WithFullGridUpdates(opts FRAOptions) FRAOptions {
	opts.fullGridUpdates = true
	return opts
}

// TrajStep is one recorded step of a Reference's budget-free FRA run: the
// nodes selected before it, its relay bills before and with its node, and
// whether the node was banned as a duplicate.
type TrajStep struct {
	Picks, Before, With int
	Banned              bool
}

// TrajectorySteps extends ref's trajectory for gridN and rc to n steps
// where the run has them and returns its recorded steps; ended reports
// that the run has no further step.
func TrajectorySteps(ref *surface.Reference, gridN int, rc float64, n int) (steps []TrajStep, ended bool) {
	t := trajectoryOf(ref, gridN, rc)
	for i := 0; i < n; i++ {
		if _, ok := t.step(i, &fraMetrics{}); !ok {
			break
		}
	}
	picks := 0
	for _, s := range *t.steps.Load() {
		steps = append(steps, TrajStep{Picks: picks, Before: s.before, With: s.with, Banned: s.banned})
		if !s.banned {
			picks++
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return steps, t.ended
}
