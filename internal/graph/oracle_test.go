package graph

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randomPoints draws n points in [0,100)² with a fixed seed; snapped
// optionally to the unit lattice so exact distance ties occur, matching
// FRA's lattice-constrained candidates.
func randomPoints(n int, seed int64, lattice bool) []geom.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Vec2, n)
	for i := range out {
		x, y := rng.Float64()*100, rng.Float64()*100
		if lattice {
			x, y = float64(int(x)), float64(int(y))
		}
		out[i] = geom.V2(x, y)
	}
	return out
}

func TestRelayOracleMatchesRelaysNeeded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rc      float64
		lattice bool
	}{
		{"sparse", 8, false},
		{"dense", 25, false},
		{"very-sparse", 3, false},
		{"lattice-ties", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := randomPoints(60, 7, tc.lattice)
			o := NewRelayOracle(tc.rc)
			for i, p := range pts {
				o.Commit(p)
				committed := pts[:i+1]
				want := RelaysNeeded(committed, tc.rc)
				if got := o.Relays(); got != want {
					t.Fatalf("after %d commits: Relays = %d, RelaysNeeded = %d", i+1, got, want)
				}
			}
		})
	}
}

func TestRelayOracleWhatIf(t *testing.T) {
	pts := randomPoints(40, 11, false)
	cands := randomPoints(30, 13, true)
	for _, rc := range []float64{5, 10, 20} {
		o := NewRelayOracle(rc)
		for _, p := range pts {
			o.Commit(p)
		}
		for _, c := range cands {
			want := RelaysNeeded(append(append([]geom.Vec2(nil), pts...), c), rc)
			if got := o.RelaysWith(c); got != want {
				t.Fatalf("rc=%v RelaysWith(%v) = %d, want %d", rc, c, got, want)
			}
		}
		// RelaysWith must not have mutated the committed state.
		if got, want := o.Relays(), RelaysNeeded(pts, rc); got != want {
			t.Fatalf("rc=%v Relays after what-ifs = %d, want %d", rc, got, want)
		}
		if o.N() != len(pts) {
			t.Fatalf("rc=%v N = %d, want %d", rc, o.N(), len(pts))
		}
	}
}

func TestRelayOracleDuplicatePoint(t *testing.T) {
	o := NewRelayOracle(10)
	p := geom.V2(5, 5)
	o.Commit(p)
	o.Commit(p)
	o.Commit(geom.V2(50, 50))
	want := RelaysNeeded([]geom.Vec2{p, p, geom.V2(50, 50)}, 10)
	if got := o.Relays(); got != want {
		t.Fatalf("Relays = %d, want %d", got, want)
	}
	if got := o.RelaysWith(p); got != want {
		t.Fatalf("RelaysWith(duplicate) = %d, want %d", got, want)
	}
}

func TestRelayOracleEmpty(t *testing.T) {
	o := NewRelayOracle(10)
	if o.Relays() != 0 {
		t.Error("empty oracle must need no relays")
	}
	if o.RelaysWith(geom.V2(1, 1)) != 0 {
		t.Error("single hypothetical point must need no relays")
	}
}
