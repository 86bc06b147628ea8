package fault

import "fmt"

// ProfileSpec is the declarative, JSON-loadable side of Profile: scenario
// files (internal/sweep specs, experiment configs) describe a fault
// profile as data, and the harness materializes the Config and Injector
// from it at cell-construction time. The zero value describes a fault-free
// run.
type ProfileSpec struct {
	// Rate is the run-level failure rate handed to Profile: the expected
	// fraction of nodes that crash over the run, with link loss and
	// sensing faults scaled proportionally. 0 is fault-free.
	Rate float64 `json:"rate"`
	// Seed optionally pins the injector's seed. 0 (the default) derives
	// the seed from the run seed passed at construction, so every sweep
	// cell draws from an independent but reproducible stream.
	Seed int64 `json:"seed,omitempty"`
}

// Validate rejects rates outside [0, 1), NaN included.
func (s ProfileSpec) Validate() error {
	if !(s.Rate >= 0 && s.Rate < 1) {
		return fmt.Errorf("fault: profile rate %g outside [0, 1)", s.Rate)
	}
	return nil
}

// seed resolves the effective injector seed: the pinned Seed when set,
// the caller's run seed otherwise.
func (s ProfileSpec) seed(runSeed int64) int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return runSeed
}

// Config materializes the profile for a run of the given length. It is
// exactly Profile(Rate, slots, seed), so a zero-rate spec yields an inert
// config and a bit-identical fault-free run.
func (s ProfileSpec) Config(slots int, runSeed int64) Config {
	return Profile(s.Rate, slots, s.seed(runSeed))
}

// NewInjector builds the injector for an n-node world running the given
// number of slots. Each call returns a fresh injector: injectors hold
// per-run state and must never be shared between worlds.
func (s ProfileSpec) NewInjector(n, slots int, runSeed int64) *Injector {
	return NewInjector(n, s.Config(slots, runSeed))
}
