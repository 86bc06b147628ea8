// Package strategy is the pluggable-algorithm layer of the reproduction:
// it defines the two interfaces every distribution algorithm fits behind —
// Placement (static: field + budget → node set, the OSD problem) and
// Movement (per-node controller factory driving the engine's Plan stage,
// the OSTD problem) — together with a name-keyed registry that eval, the
// scenario sweep and the CLIs resolve strategies from.
//
// The paper's own algorithms register here as the built-ins: FRA, CWD,
// and the random/uniform baselines as placements, CMA as the movement.
// Two competitor strategies from the related literature are first-class
// citizens alongside them: Lloyd/centroidal-Voronoi coverage descent with
// limited-range interactions (Cortés, Martínez, Bullo) and a
// density/lifetime-aware redistribution in the spirit of Chu & Sethu.
//
// Contract: resolving "fra" and running it produces results bit-identical
// to calling core.FRA directly, and resolving "cma" builds controllers
// bit-identical to mobile.NewController — the registry adds dispatch, not
// dynamics. Registration happens in package init; duplicate names panic
// (two algorithms silently shadowing each other is a programming error),
// unknown names resolve to an error listing what is registered.
package strategy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
	"repro/internal/obs"
)

// ErrBadParams is returned for invalid placement parameters.
var ErrBadParams = errors.New("strategy: invalid parameters")

// PlaceOptions are the inputs common to every static placement strategy:
// the node budget, the communication radius, the working lattice
// resolution, and the seed for strategies with a stochastic component.
type PlaceOptions struct {
	// K is the number of nodes to place.
	K int
	// Rc is the communication radius.
	Rc float64
	// GridN is the working-lattice resolution (FRA's local-error grid,
	// Lloyd's integration lattice); 0 takes each strategy's default.
	GridN int
	// Seed drives strategies with a stochastic component (random, cwd,
	// density); deterministic strategies ignore it.
	Seed int64
	// Metrics, when non-nil, receives whatever counters the strategy
	// exports (FRA's refinement counters). Never perturbs results.
	Metrics *obs.Registry
}

// Placement is a static distribution algorithm: given a field and a node
// budget it returns node positions (plus reconstruction anchors and
// bookkeeping). Implementations must be deterministic functions of
// (field, PlaceOptions).
type Placement interface {
	// Name is the registry key the strategy is resolved by.
	Name() string
	Place(f field.Field, opts PlaceOptions) (core.Placement, error)
}

// Movement is a mobile-strategy factory: it builds the per-node Planner
// that the engine's Fit/Plan stages drive each slot. The factory
// signature matches engine.Options.NewController, so a resolved Movement
// plugs into an engine as engine.Options{NewController: m.NewController}.
type Movement interface {
	// Name is the registry key the strategy is resolved by.
	Name() string
	NewController(id int, cfg mobile.Config) (mobile.Planner, error)
}

var (
	regMu      sync.RWMutex
	placements = map[string]Placement{}
	movements  = map[string]Movement{}
)

// RegisterPlacement adds a placement strategy under its Name. It panics
// on an empty name or a duplicate registration: two strategies silently
// shadowing one another would make sweep digests ambiguous.
func RegisterPlacement(p Placement) {
	regMu.Lock()
	defer regMu.Unlock()
	name := p.Name()
	if name == "" {
		panic("strategy: RegisterPlacement with empty name")
	}
	if _, dup := placements[name]; dup {
		panic(fmt.Sprintf("strategy: placement %q registered twice", name))
	}
	placements[name] = p
}

// RegisterMovement adds a movement strategy under its Name, with the same
// empty-name and duplicate panics as RegisterPlacement.
func RegisterMovement(m Movement) {
	regMu.Lock()
	defer regMu.Unlock()
	name := m.Name()
	if name == "" {
		panic("strategy: RegisterMovement with empty name")
	}
	if _, dup := movements[name]; dup {
		panic(fmt.Sprintf("strategy: movement %q registered twice", name))
	}
	movements[name] = m
}

// LookupPlacement resolves a placement strategy by name. The error for an
// unknown name lists every registered name, so CLI users see what to
// type.
func LookupPlacement(name string) (Placement, error) {
	regMu.RLock()
	p, ok := placements[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("strategy: unknown placement %q (registered: %s)",
			name, strings.Join(PlacementNames(), ", "))
	}
	return p, nil
}

// LookupMovement resolves a movement strategy by name, with the same
// name-listing error as LookupPlacement.
func LookupMovement(name string) (Movement, error) {
	regMu.RLock()
	m, ok := movements[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("strategy: unknown movement %q (registered: %s)",
			name, strings.Join(MovementNames(), ", "))
	}
	return m, nil
}

// MovementFor returns the movement phase of a named strategy: the
// movement registered under the same name when there is one, CMA
// otherwise. This is the sweep's pairing rule — a grid cell labeled
// "lloyd" places with Lloyd and moves with Lloyd descent, while a cell
// labeled "fra" or "random" places statically and runs the paper's CMA
// dynamics on top, exactly as the pre-strategy sweep did.
func MovementFor(name string) Movement {
	regMu.RLock()
	m, ok := movements[name]
	regMu.RUnlock()
	if ok {
		return m
	}
	m, err := LookupMovement("cma")
	if err != nil {
		panic("strategy: built-in cma movement missing")
	}
	return m
}

// HasPlacement reports whether a placement strategy is registered under
// the name.
func HasPlacement(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := placements[name]
	return ok
}

// PlacementNames returns the registered placement names, sorted.
func PlacementNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(placements))
	for n := range placements {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MovementNames returns the registered movement names, sorted.
func MovementNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(movements))
	for n := range movements {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// validatePlace rejects the parameter combinations no placement can use.
func validatePlace(o PlaceOptions) error {
	if o.K < 1 {
		return fmt.Errorf("%w: k=%d", ErrBadParams, o.K)
	}
	if !(o.Rc > 0) || math.IsInf(o.Rc, 1) {
		return fmt.Errorf("%w: rc=%g", ErrBadParams, o.Rc)
	}
	if o.GridN < 0 {
		return fmt.Errorf("%w: gridN=%d", ErrBadParams, o.GridN)
	}
	return nil
}

// cornerAnchors returns the region corners as reconstruction anchors —
// the same fairness convention the sweep's static phase applies to the
// random baseline, so every strategy's δ is integrated over a
// reconstruction that covers the whole region.
func cornerAnchors(region geom.Rect) []geom.Vec2 {
	corners := region.Corners()
	return append([]geom.Vec2(nil), corners[:]...)
}
