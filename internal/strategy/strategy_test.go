package strategy_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
	"repro/internal/strategy"
)

// TestRegisteredNames pins the built-in registry contents: the paper's
// algorithms plus the competitor strategies, sorted.
func TestRegisteredNames(t *testing.T) {
	wantP := []string{"cwd", "density", "fra", "lloyd", "random", "tour", "uniform"}
	if got := strategy.PlacementNames(); !reflect.DeepEqual(got, wantP) {
		t.Fatalf("PlacementNames = %v, want %v", got, wantP)
	}
	wantM := []string{"cma", "density", "lloyd", "tour"}
	if got := strategy.MovementNames(); !reflect.DeepEqual(got, wantM) {
		t.Fatalf("MovementNames = %v, want %v", got, wantM)
	}
	for _, n := range wantP {
		if !strategy.HasPlacement(n) {
			t.Fatalf("HasPlacement(%q) = false", n)
		}
	}
	if strategy.HasPlacement("nope") {
		t.Fatal(`HasPlacement("nope") = true`)
	}
}

// TestFRAPlacementIdentity is the registry's core contract: resolving
// "fra" and placing through the interface is bit-identical to calling
// core.FRA directly — the registry adds dispatch, not dynamics.
func TestFRAPlacementIdentity(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	direct, err := core.FRA(f, core.FRAOptions{K: 20, Rc: 30, GridN: 40})
	if err != nil {
		t.Fatal(err)
	}
	placer, err := strategy.LookupPlacement("fra")
	if err != nil {
		t.Fatal(err)
	}
	viaReg, err := placer.Place(f, strategy.PlaceOptions{K: 20, Rc: 30, GridN: 40})
	if err != nil {
		t.Fatal(err)
	}
	if viaReg.Refined != direct.Refined || viaReg.Relays != direct.Relays {
		t.Fatalf("bookkeeping diverged: registry (refined=%d relays=%d) vs direct (refined=%d relays=%d)",
			viaReg.Refined, viaReg.Relays, direct.Refined, direct.Relays)
	}
	samePoints(t, "nodes", viaReg.Nodes, direct.Nodes)
	samePoints(t, "anchors", viaReg.Anchors, direct.Anchors)
}

// TestRandomPlacementIdentity pins the random baseline's pass-through:
// same nodes as core.RandomPlacement, corner anchors appended.
func TestRandomPlacementIdentity(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	placer, err := strategy.LookupPlacement("random")
	if err != nil {
		t.Fatal(err)
	}
	viaReg, err := placer.Place(f, strategy.PlaceOptions{K: 15, Rc: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	direct := core.RandomPlacement(f.Bounds(), 15, 7)
	samePoints(t, "nodes", viaReg.Nodes, direct.Nodes)
	corners := f.Bounds().Corners()
	samePoints(t, "anchors", viaReg.Anchors, corners[:])
}

// TestCMAMovementIdentity is the movement half of the identity contract:
// a world whose controllers are built through strategy.MovementFor("cma")
// must reproduce the default-factory trajectory bit for bit, slot by
// slot.
func TestCMAMovementIdentity(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	init := field.GridLayout(forest.Bounds(), 25)

	def, err := engine.New(forest, init, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.DefaultOptions()
	opts.NewController = strategy.MovementFor("cma").NewController
	reg, err := engine.New(forest, init, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if _, err := def.Step(); err != nil {
			t.Fatalf("default slot %d: %v", s, err)
		}
		if _, err := reg.Step(); err != nil {
			t.Fatalf("registry slot %d: %v", s, err)
		}
		samePoints(t, "positions", reg.Positions(), def.Positions())
	}
}

// samePoints compares two point sets for exact bit equality.
func samePoints(t *testing.T, what string, got, want []geom.Vec2) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
			math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			t.Fatalf("%s[%d] = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

// TestLookupUnknownListsNames checks the unknown-name errors tell the
// user what is registered.
func TestLookupUnknownListsNames(t *testing.T) {
	_, err := strategy.LookupPlacement("nope")
	if err == nil {
		t.Fatal("LookupPlacement(nope): want error")
	}
	for _, want := range []string{`unknown placement "nope"`, "registered:", "fra", "lloyd", "density"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("placement error %q missing %q", err, want)
		}
	}
	_, err = strategy.LookupMovement("nope")
	if err == nil {
		t.Fatal("LookupMovement(nope): want error")
	}
	for _, want := range []string{`unknown movement "nope"`, "registered:", "cma", "lloyd"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("movement error %q missing %q", err, want)
		}
	}
}

// stubPlacement and stubMovement exist only to probe registration.
type stubPlacement struct{ name string }

func (s stubPlacement) Name() string { return s.name }
func (s stubPlacement) Place(field.Field, strategy.PlaceOptions) (core.Placement, error) {
	return core.Placement{}, nil
}

type stubMovement struct{ name string }

func (s stubMovement) Name() string { return s.name }
func (s stubMovement) NewController(int, mobile.Config) (mobile.Planner, error) {
	return nil, nil
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one containing %q)", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	fn()
}

// TestRegisterPanics pins the duplicate- and empty-name panics: silent
// shadowing would make sweep digests ambiguous, so it must be loud.
func TestRegisterPanics(t *testing.T) {
	mustPanic(t, `placement "fra" registered twice`, func() {
		strategy.RegisterPlacement(stubPlacement{"fra"})
	})
	mustPanic(t, "empty name", func() {
		strategy.RegisterPlacement(stubPlacement{""})
	})
	mustPanic(t, `movement "cma" registered twice`, func() {
		strategy.RegisterMovement(stubMovement{"cma"})
	})
	mustPanic(t, "empty name", func() {
		strategy.RegisterMovement(stubMovement{""})
	})
}

// TestMovementFor pins the sweep's pairing rule: same-named movement when
// one is registered, CMA otherwise.
func TestMovementFor(t *testing.T) {
	cases := map[string]string{
		"cma":     "cma",
		"lloyd":   "lloyd",
		"density": "density",
		"fra":     "cma", // static strategy: the paper's dynamics on top
		"random":  "cma",
		"uniform": "cma",
		"nope":    "cma",
	}
	for name, want := range cases {
		if got := strategy.MovementFor(name).Name(); got != want {
			t.Errorf("MovementFor(%q).Name() = %q, want %q", name, got, want)
		}
	}
}

// TestPlaceBadParams checks every placement rejects a zero node budget,
// a radius that is not positive and finite, and a negative lattice
// resolution. FRA validates through core.FRA's own options error;
// everything else wraps strategy.ErrBadParams.
func TestPlaceBadParams(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	for _, name := range strategy.PlacementNames() {
		placer, err := strategy.LookupPlacement(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			what string
			o    strategy.PlaceOptions
		}{
			{"k=0", strategy.PlaceOptions{K: 0, Rc: 10}},
			{"rc=0", strategy.PlaceOptions{K: 5, Rc: 0}},
			{"rc=-1", strategy.PlaceOptions{K: 5, Rc: -1}},
			{"rc=NaN", strategy.PlaceOptions{K: 5, Rc: math.NaN()}},
			{"rc=+Inf", strategy.PlaceOptions{K: 5, Rc: math.Inf(1)}},
			{"rc=-Inf", strategy.PlaceOptions{K: 5, Rc: math.Inf(-1)}},
			{"gridN=-1", strategy.PlaceOptions{K: 5, Rc: 10, GridN: -1}},
		} {
			if _, err := placer.Place(f, tc.o); err == nil {
				t.Errorf("%s: %s accepted", name, tc.what)
			} else if name != "fra" && !errors.Is(err, strategy.ErrBadParams) {
				t.Errorf("%s: %s error %v is not ErrBadParams", name, tc.what, err)
			}
		}
	}
}

// TestMovementBadConfig checks every movement factory propagates an
// invalid mobile.Config instead of building a controller.
func TestMovementBadConfig(t *testing.T) {
	for _, name := range strategy.MovementNames() {
		mv, err := strategy.LookupMovement(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mv.NewController(0, mobile.Config{}); err == nil {
			t.Errorf("%s: zero config accepted", name)
		}
	}
}
