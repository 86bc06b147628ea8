package curvature

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/geom"
)

// checkPeak compares Peak with its oracle, the candidate loop over
// FitNearest on the fitter ref, Float64bits-equal: on the result and on
// every candidate the lattice walk serves. It returns how many candidates
// the walk served.
func checkPeak(t *testing.T, label string, f, ref *Fitter, pos geom.Vec2, samples []field.Sample, m int, inner float64) int {
	t.Helper()
	bits := math.Float64bits
	wantPos, wantG, served := pos, 0.0, 0
	indexed := len(samples) >= 3 && f.index(samples)
	for i, s := range samples {
		if len(samples) < 3 || s.Pos.Dist2(pos) > inner*inner {
			continue
		}
		est, _ := ref.FitNearest(s.Pos, samples, m)
		want := est.AbsGaussian()
		if want > wantG {
			wantPos, wantG = s.Pos, want
		}
		if !indexed {
			continue
		}
		if g, ok := f.latticeAbsG(i, samples, max(m, 3)); ok {
			served++
			if bits(g) != bits(want) {
				t.Fatalf("%s: candidate %d at %v: |G| bits %016x, FitNearest %016x", label, i, s.Pos, bits(g), bits(want))
			}
		}
	}
	gotPos, gotG := f.Peak(pos, samples, m, inner)
	if bits(gotPos.X) != bits(wantPos.X) || bits(gotPos.Y) != bits(wantPos.Y) || bits(gotG) != bits(wantG) {
		t.Fatalf("%s: Peak = %v, %v; want %v, %v", label, gotPos, gotG, wantPos, wantG)
	}
	return served
}

// TestPeakMatchesFitNearest pins Peak's lattice walk and factor cache to
// the FitNearest scan, bit for bit, per candidate: forest and peaks
// fields and a flat plane, Rs in {2, 3, 5, 7.5}, m in 3..21 and every backend, on clean
// sensing discs and on discs with 20% dropouts, outlier spikes, a
// duplicated sample, shuffled order, an extra off-lattice sample, an
// off-lattice sample whose Dist² ties a lattice sample's, or an integer
// own position. One fitter per backend serves every case, so
// factors cached by one case are reused by later ones.
func TestPeakMatchesFitNearest(t *testing.T) {
	region := geom.Square(100)
	fields := map[string]field.Field{
		"forest": field.NewForest(field.DefaultForestConfig()).Reference(),
		"peaks":  field.Peaks(region),
		"plane":  field.Plane(region, 3, -2, 1e6), // flat: every |G| is the flat floor's 0
	}
	variants := []string{"clean", "dropouts", "outliers", "duplicate", "shuffled", "extra", "tie", "integer"}
	radii := []float64{2, 3, 5, 7.5}
	cases := 2000
	if testing.Short() {
		cases = 400
	}
	rng := rand.New(rand.NewSource(31))
	fitters := []*Fitter{NewFitter(QR), NewFitter(Normal), NewFitter(Huber)}
	refs := []*Fitter{NewFitter(QR), NewFitter(Normal), NewFitter(Huber)}
	served := 0
	for c := 0; c < cases; c++ {
		name := []string{"forest", "peaks"}[c%2]
		if c%25 == 24 {
			name = "plane"
		}
		rs := radii[c/2%len(radii)]
		variant := variants[c/8%len(variants)]
		method := c / 56 % 3
		m := 3 + rng.Intn(19)
		pos := geom.V2(rng.Float64()*100, rng.Float64()*100)
		if variant == "integer" {
			pos = geom.V2(math.Round(pos.X), math.Round(pos.Y))
		}
		samples := field.NewSampler(0, 1).Disc(fields[name], pos, rs)
		switch variant {
		case "dropouts":
			kept := samples[:0]
			for _, s := range samples {
				if rng.Float64() >= 0.2 {
					kept = append(kept, s)
				}
			}
			samples = kept
		case "outliers":
			for i := range samples {
				if rng.Float64() < 0.1 {
					samples[i].Z += 40 * rng.NormFloat64()
				}
			}
		case "duplicate":
			if len(samples) > 0 {
				samples = append(samples, samples[rng.Intn(len(samples))])
			}
		case "shuffled":
			rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		case "extra":
			p := pos.Add(geom.V2(rng.Float64()*rs, rng.Float64()*rs).Scale(0.7))
			samples = append(samples, field.Sample{Pos: p, Z: fields[name].Eval(p)})
		case "tie":
			// An off-lattice sample 1e-9 above a lattice sample: its Dist²
			// to every candidate in that lattice row rounds to the same
			// integer as the lattice sample's, so the walk must break the
			// tie by index. It goes in at a random index.
			if len(samples) > 1 {
				q := samples[1+rng.Intn(len(samples)-1)].Pos
				at := rng.Intn(len(samples) + 1)
				samples = append(samples[:at], append([]field.Sample{{Pos: geom.V2(q.X, q.Y+1e-9), Z: rng.NormFloat64()}}, samples[at:]...)...)
			}
		}
		inner := 0.7 * rs
		if c%3 == 0 {
			inner = rs // every sample a candidate, edges included
		}
		label := name + "/" + variant
		served += checkPeak(t, label, fitters[method], refs[method], pos, samples, m, inner)
	}
	if served == 0 {
		t.Fatal("the lattice walk served no candidate")
	}
}

// FuzzPeak pins Peak to the FitNearest candidate loop, Float64bits-equal,
// per candidate. Each cloud byte triple is a sample on a small integer
// lattice, moved half a step off it when the first byte's top bit is set,
// so duplicates, off-lattice samples and distance ties are common; pos,
// m, the inner radius and the backend come from the remaining arguments.
func FuzzPeak(f *testing.F) {
	disc := make([]byte, 0, 3*81)
	for x := 0; x < 9; x++ {
		for y := 0; y < 9; y++ {
			disc = append(disc, byte(x+4), byte(y+4), byte(x*y))
		}
	}
	f.Add(disc, int8(5), int8(7), uint8(12), uint8(6), uint8(0))
	f.Add(disc, int8(16), int8(16), uint8(21), uint8(9), uint8(2))
	f.Add(append([]byte{0x85, 7, 3}, disc...), int8(3), int8(-5), uint8(9), uint8(4), uint8(1))
	f.Add([]byte{1, 1, 7, 1, 1, 9, 1, 1, 3, 2, 2, 0, 2, 2, 1, 0, 3, 5}, int8(2), int8(2), uint8(3), uint8(3), uint8(0))
	f.Add([]byte{}, int8(0), int8(0), uint8(0), uint8(0), uint8(0))
	fitters := []*Fitter{NewFitter(QR), NewFitter(Normal), NewFitter(Huber)}
	refs := []*Fitter{NewFitter(QR), NewFitter(Normal), NewFitter(Huber)}
	f.Fuzz(func(t *testing.T, cloud []byte, ox, oy int8, mRaw, innerRaw, methodRaw uint8) {
		var samples []field.Sample
		for i := 0; i+2 < len(cloud) && len(samples) < 200; i += 3 {
			p := geom.V2(float64(int(cloud[i]%16)-8), float64(int(cloud[i+1]%16)-8))
			if cloud[i]&0x80 != 0 {
				p.X += 0.5
			}
			samples = append(samples, field.Sample{Pos: p, Z: float64(int8(cloud[i+2])) / 16})
		}
		pos := geom.V2(float64(ox%32)/2, float64(oy%32)/2)
		m := 1 + int(mRaw)%(len(samples)+2)
		inner := float64(innerRaw%32) / 2
		k := int(methodRaw) % 3
		checkPeak(t, "fuzz", fitters[k], refs[k], pos, samples, m, inner)
	})
}
