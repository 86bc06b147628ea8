package graph

import (
	"math/rand"
	"runtime"
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

// oracleOp is one step of a relay-oracle stream: a Commit of p, or a
// what-if RelaysWith(p).
type oracleOp struct {
	commit bool
	p      geom.Vec2
}

// checkOracleStream runs ops against a fresh oracle for radius rc and
// compares every answer with RelaysNeeded. After each step it also checks
// Relays() and asks RelaysWith for the step's point again: after a query
// that takes the oracle's reuse path, after a Commit it asks for a
// duplicate of a committed point.
func checkOracleStream(t testing.TB, rc float64, ops []oracleOp) {
	t.Helper()
	o := NewRelayOracle(rc)
	var pts []geom.Vec2
	with := func(p geom.Vec2) int { return RelaysNeeded(append(pts[:len(pts):len(pts)], p), rc) }
	for i, op := range ops {
		if op.commit {
			o.Commit(op.p)
			pts = append(pts, op.p)
		} else if got, want := o.RelaysWith(op.p), with(op.p); got != want {
			t.Fatalf("rc=%v step %d: RelaysWith(%v) = %d, RelaysNeeded = %d; stream %v", rc, i, op.p, got, want, ops[:i+1])
		}
		if got, want := o.Relays(), RelaysNeeded(pts, rc); got != want {
			t.Fatalf("rc=%v step %d: Relays = %d, RelaysNeeded = %d; stream %v", rc, i, got, want, ops[:i+1])
		}
		if got, want := o.RelaysWith(op.p), with(op.p); got != want {
			t.Fatalf("rc=%v step %d: repeated RelaysWith(%v) = %d, RelaysNeeded = %d; stream %v", rc, i, op.p, got, want, ops[:i+1])
		}
	}
	if o.N() != len(pts) {
		t.Fatalf("rc=%v: N = %d, want %d", rc, o.N(), len(pts))
	}
}

// randomOracleStream draws a stream on an integer lattice a few radii
// wide, so components form and split, and distance ties are common. Some
// points repeat a committed point, some sit exactly rc from one along an
// axis or, for rc a multiple of 5, along a 3-4-5 diagonal; some queries
// are followed by the Commit of a different point, so a stale reused pass
// would give a wrong bill.
func randomOracleStream(rng *rand.Rand, rc float64) []oracleOp {
	span := int(rc*float64(2+rng.Intn(5))) + 1
	var committed []geom.Vec2
	var ops []oracleOp
	for len(committed) < 12+rng.Intn(30) {
		p := geom.V2(float64(rng.Intn(span)), float64(rng.Intn(span)))
		if len(committed) > 0 {
			q := committed[rng.Intn(len(committed))]
			switch rng.Intn(6) {
			case 0:
				p = q
			case 1:
				p = q.Add(geom.V2(rc, 0))
			case 2:
				p = q.Add(geom.V2(0, -rc))
			case 3:
				if r := int(rc); float64(r) == rc && r%5 == 0 {
					p = q.Add(geom.V2(float64(3*r/5), float64(4*r/5)))
				}
			}
		}
		switch rng.Intn(3) {
		case 0: // query p, then commit it: the reuse path
			ops = append(ops, oracleOp{p: p}, oracleOp{commit: true, p: p})
		case 1: // query another point, then commit p: the scan is stale
			other := geom.V2(float64(rng.Intn(span)), float64(rng.Intn(span)))
			ops = append(ops, oracleOp{p: other}, oracleOp{commit: true, p: p})
		default:
			ops = append(ops, oracleOp{commit: true, p: p})
		}
		committed = append(committed, p)
	}
	return ops
}

func TestRelayOracleProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rc := float64(1 + rng.Intn(40))
		if seed%4 == 3 {
			rc += 0.5
		}
		checkOracleStream(t, rc, randomOracleStream(rng, rc))
	}
}

// FuzzRelayOracle decodes a radius in [1, 40] and a stream of up to 64
// steps, three bytes each: the low bit of the first picks Commit or
// RelaysWith, its next two bits add half a unit to x and y, and the other
// two bytes are lattice coordinates in [0, 64).
func FuzzRelayOracle(f *testing.F) {
	f.Add(uint8(9), []byte{1, 0, 0, 1, 10, 0, 0, 30, 0, 1, 20, 0, 1, 30, 0})
	f.Add(uint8(4), []byte{1, 3, 3, 1, 3, 3, 0, 8, 3, 1, 13, 3, 1, 3, 8, 0, 8, 8})
	f.Add(uint8(0), []byte{1, 0, 0, 0, 5, 5, 1, 2, 2, 7, 1, 1, 1, 63, 63, 1, 40, 40})
	f.Fuzz(func(t *testing.T, rcByte uint8, data []byte) {
		rc := 1 + float64(rcByte%40)
		var ops []oracleOp
		for i := 0; i+3 <= len(data) && len(ops) < 64; i += 3 {
			b := data[i]
			x := float64(data[i+1]%64) + 0.5*float64(b>>1&1)
			y := float64(data[i+2]%64) + 0.5*float64(b>>2&1)
			ops = append(ops, oracleOp{commit: b&1 == 1, p: geom.V2(x, y)})
		}
		checkOracleStream(t, rc, ops)
	})
}

// TestRelayOracleAllocs pins the oracle's steady state: on a warmed oracle
// RelaysWith allocates nothing, and a Commit allocates only when one of
// the oracle's slices outgrows its capacity.
func TestRelayOracleAllocs(t *testing.T) {
	o := NewRelayOracle(8)
	for _, p := range randomPoints(300, 3, false) {
		o.Commit(p)
	}
	cands := randomPoints(64, 5, true)
	for _, c := range cands {
		o.RelaysWith(c)
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		o.RelaysWith(cands[i%len(cands)])
		i++
	}); a != 0 {
		t.Errorf("RelaysWith allocates %v times per call, want 0", a)
	}

	caps := func() []int {
		return []int{cap(o.pts), cap(o.uf.parent), cap(o.uf.rank), cap(o.roots),
			cap(o.tree), cap(o.scan), cap(o.cands), cap(o.next)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for _, p := range randomPoints(400, 17, false) {
		if o.N()%2 == 0 {
			o.RelaysWith(p) // the Commit reuses this pass
		}
		capsBefore := caps()
		runtime.ReadMemStats(&before)
		o.Commit(p)
		runtime.ReadMemStats(&after)
		grew := 0
		for j, c := range caps() {
			if c != capsBefore[j] {
				grew++
			}
		}
		if mallocs := int(after.Mallocs - before.Mallocs); mallocs > grew {
			t.Fatalf("Commit #%d made %d allocations while %d slices grew", o.N(), mallocs, grew)
		}
	}
}
