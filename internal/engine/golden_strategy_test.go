package engine

import (
	"testing"

	"repro/internal/strategy"
)

// TestGoldenBitIdentityViaStrategy re-runs the golden trajectories with
// every controller built through the strategy registry instead of the
// default factory. Resolving "cma" must add dispatch, not dynamics: all
// three recorded scenarios — every position bit, every statistic, every
// connectivity verdict — must still match exactly.
func TestGoldenBitIdentityViaStrategy(t *testing.T) {
	goldenFactory = strategy.MovementFor("cma").NewController
	defer func() { goldenFactory = nil }()
	verifyGolden(t)
}
