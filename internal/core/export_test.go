package core

// WithFullGridUpdates returns a copy of opts with the incremental
// new-triangle refresh disabled, so tests can compare the two paths.
func WithFullGridUpdates(opts FRAOptions) FRAOptions {
	opts.fullGridUpdates = true
	return opts
}
