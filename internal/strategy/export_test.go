package strategy

// The Lloyd placement's constants, for the brute-force oracle in the
// external test package.
const (
	LloydRangeFrac = lloydRangeFrac
	LloydMaxIters  = lloydMaxIters
)
