package surface

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
)

// evalUpdate is Update through the per-point oracle: TIN.Eval at every
// node, in row-major order, then the row maxima.
func (g *LocalErrorGrid) evalUpdate(t *TIN) {
	for i := 0; i <= g.n; i++ {
		for j := 0; j <= g.n; j++ {
			k := g.idx(i, j)
			g.err[k] = math.Abs(g.ref[k] - t.Eval(g.Pos(i, j)))
		}
		g.updateRowMax(i)
	}
}

// evalDelta is Delta through the per-point oracle: both fields evaluated
// at every midpoint, summed in Delta's row order.
func evalDelta(f, g field.Field, n int) float64 {
	r := f.Bounds()
	dx, dy := r.Width()/float64(n), r.Height()/float64(n)
	sum := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			p := geom.V2(r.Min.X+dx*(float64(i)+0.5), r.Min.Y+dy*(float64(j)+0.5))
			s += math.Abs(f.Eval(p) - g.Eval(p))
		}
		sum += s
	}
	return sum * dx * dy
}

// TestLatticeScanMatchesEval checks that every lattice the scan fills
// holds the bits of the per-point oracle TIN.Eval, at GOMAXPROCS 1 and 4:
// δ with the TIN on either side and on both, the reference lattice of a
// TIN field, and Update. The TINs are the degenerate clouds, with and
// without the region corners (without them many nodes lie outside the
// hull), on the square and the offset region, and the flat 1e-4-wide TIN
// of TestAddDirtyFlatTriangle.
func TestLatticeScanMatchesEval(t *testing.T) {
	type input struct {
		name string
		f    field.Field
		tin  *TIN
		n    int
	}
	var inputs []input
	for rname, region := range degenerateRegions {
		f := field.Peaks(region)
		for cname, cloud := range degenerateClouds {
			for _, gridN := range []int{37, 100} {
				for _, corners := range []bool{true, false} {
					tin := NewTIN(region)
					var ps []geom.Vec2
					if corners {
						cs := region.Corners()
						ps = cs[:]
					}
					ps = append(ps, cloud(NewLocalErrorGrid(f, gridN), rand.New(rand.NewSource(int64(gridN))))...)
					for _, p := range ps {
						_ = tin.Add(field.Sample{Pos: p, Z: f.Eval(p)}) // duplicates keep the first value
					}
					name := fmt.Sprintf("%s/%s/n=%d/corners=%v", rname, cname, gridN, corners)
					inputs = append(inputs, input{name, f, tin, gridN})
				}
			}
		}
	}
	flat := NewTIN(geom.Square(1e-4))
	cs := geom.Square(1e-4).Corners()
	for _, p := range append(cs[:], geom.V2(5e-5, 5e-5), geom.V2(2.5e-5, 1.25e-5)) {
		if err := flat.Add(field.Sample{Pos: p, Z: p.X + 2*p.Y}); err != nil {
			t.Fatal(err)
		}
	}
	if !flat.flat {
		t.Fatal("the 1e-4-wide TIN is not flat")
	}
	inputs = append(inputs, input{"flat", field.Peaks(geom.Square(1e-4)), flat, 40})

	for _, in := range inputs {
		samples := in.tin.Samples()
		other, err := FromSamples(in.f.Bounds(), samples[:max(len(samples)/2, 1)])
		if err != nil {
			t.Fatal(err)
		}
		wantDelta := [3]float64{evalDelta(in.f, in.tin, in.n), evalDelta(in.tin, in.f, in.n), evalDelta(in.tin, other, in.n)}
		wantRef := NewLocalErrorGrid(in.f, in.n)
		for i := 0; i <= in.n; i++ {
			for j := 0; j <= in.n; j++ {
				wantRef.ref[wantRef.idx(i, j)] = in.tin.Eval(wantRef.Pos(i, j))
			}
		}
		wantErr := NewLocalErrorGrid(in.f, in.n)
		wantErr.evalUpdate(in.tin)
		withGOMAXPROCS(t, []int{1, 4}, func() float64 {
			gotDelta := [3]float64{Delta(in.f, in.tin, in.n), Delta(in.tin, in.f, in.n), Delta(in.tin, other, in.n)}
			for k := range gotDelta {
				if math.Float64bits(gotDelta[k]) != math.Float64bits(wantDelta[k]) {
					t.Errorf("%s: Delta case %d = %v, oracle %v", in.name, k, gotDelta[k], wantDelta[k])
				}
			}
			ref := NewLocalErrorGrid(in.tin, in.n)
			for k := range ref.ref {
				if math.Float64bits(ref.ref[k]) != math.Float64bits(wantRef.ref[k]) {
					t.Fatalf("%s: reference node %d = %v, oracle %v", in.name, k, ref.ref[k], wantRef.ref[k])
				}
			}
			g := NewLocalErrorGrid(in.f, in.n)
			g.Update(in.tin)
			requireSameErrors(t, in.name, g, wantErr)
			return 0
		})
	}
}

// flatTIN is a flat TIN (see TIN.flat) 1e-4 wide: corners with Z = X,
// the two points of TestAddDirtyFlatTriangle, and ten points at random on
// the diagonal with random values drawn from seed.
func flatTIN(t *testing.T, seed int64) *TIN {
	t.Helper()
	const size = 1e-4
	region := geom.Square(size)
	tin := NewTIN(region)
	for _, c := range region.Corners() {
		if err := tin.Add(field.Sample{Pos: c, Z: c.X}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []geom.Vec2{geom.V2(size/2, size/2), geom.V2(size/4, size/8)} {
		if err := tin.Add(field.Sample{Pos: p, Z: p.Y}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for range 10 {
		d := rng.Float64() * size
		_ = tin.Add(field.Sample{Pos: geom.V2(d, d), Z: rng.NormFloat64()}) // duplicates keep the first value
	}
	if !tin.flat {
		t.Fatalf("seed %d: the 1e-4-wide TIN is not flat", seed)
	}
	return tin
}

// TestFlatFillIgnoresEarlierQueries: a flat TIN's lattice fill cannot
// depend on the queries made before it, so a per-point pass over the same
// lattice beforehand cannot change a bit of it. A fill that walked from a
// cursor the queries moved gave the (0,0) node a diagonal value on the
// fresh TIN of every seed here and the corner's 0 after the pass.
func TestFlatFillIgnoresEarlierQueries(t *testing.T) {
	const n = 10
	for seed := int64(0); seed < 20; seed++ {
		fresh := NewLocalErrorGrid(flatTIN(t, seed), n)
		queried := flatTIN(t, seed)
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				queried.Eval(fresh.Pos(i, j))
			}
		}
		after := NewLocalErrorGrid(queried, n)
		for k := range fresh.ref {
			if math.Float64bits(after.ref[k]) != math.Float64bits(fresh.ref[k]) {
				t.Errorf("seed %d: node %d = %v after a per-point pass, %v fresh", seed, k, after.ref[k], fresh.ref[k])
			}
		}
	}
}

// TestEvalIgnoresEarlierQueries: TIN.Eval is a function of the TIN and
// the point alone. On flat TINs, where a point on a zero-area triangle's
// edge resolves by the triangle the walk stops in, each node of the
// 10-division lattice is evaluated once in row order and once right after
// its mirror node, and the two must agree bit for bit. A walk that
// started where the previous query ended gave seed 0's (0,0) node 2.3797
// the first time and 0 the second.
func TestEvalIgnoresEarlierQueries(t *testing.T) {
	const n = 10
	xs, ys := latticeNodes(geom.Square(1e-4), n, true)
	for seed := int64(0); seed < 200; seed++ {
		tin := flatTIN(t, seed)
		first := make([]float64, (n+1)*(n+1))
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				first[i*(n+1)+j] = tin.Eval(geom.V2(xs[i], ys[j]))
			}
		}
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				tin.Eval(geom.V2(xs[n-i], ys[n-j]))
				if got := tin.Eval(geom.V2(xs[i], ys[j])); math.Float64bits(got) != math.Float64bits(first[i*(n+1)+j]) {
					t.Errorf("seed %d: node (%d,%d) = %v after its mirror, %v in row order", seed, i, j, got, first[i*(n+1)+j])
				}
			}
		}
	}
}
