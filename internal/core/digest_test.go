package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/surface"
	"repro/internal/sweep"
)

// fraPlacementDigest is the FNV-1a digest of every FRA placement in
// TestFRAPlacementDigest. It pins placements bit for bit: any change to
// the local-error refresh, the argmax tie rule or the relay oracle that
// moves a single node by one ulp changes it.
const fraPlacementDigest = "e6cd85d78db1b981"

// digestFields returns the four sweep spec fields plus one inline TIN on a
// non-square region offset from the origin, the way serve builds it.
func digestFields(t *testing.T) []field.Field {
	t.Helper()
	var fs []field.Field
	for _, kind := range []string{"forest", "peaks", "terrain", "ridge"} {
		d, err := sweep.FieldSpec{Kind: kind}.Build()
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, field.Slice(d, 0))
	}
	rng := rand.New(rand.NewSource(23))
	region := geom.Rect{Min: geom.V2(-30, 12), Max: geom.V2(55, 70)}
	samples := make([]field.Sample, 0, 64)
	for _, c := range region.Corners() {
		samples = append(samples, field.Sample{Pos: c, Z: rng.Float64() * 10})
	}
	for len(samples) < 64 {
		p := geom.V2(region.Min.X+rng.Float64()*region.Width(), region.Min.Y+rng.Float64()*region.Height())
		samples = append(samples, field.Sample{Pos: p, Z: rng.NormFloat64() * 5})
	}
	tin, err := surface.FromSamples(region, samples)
	if err != nil {
		t.Fatal(err)
	}
	return append(fs, tin)
}

// TestFRAPlacementDigest runs FRA over five fields × k × GridN and checks
// the Float64bits digest of every Nodes, Refined and Relays against the
// recorded one.
func TestFRAPlacementDigest(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for fi, f := range digestFields(t) {
		for _, k := range []int{5, 30, 100, 400} {
			for _, gridN := range []int{37, 100} {
				p, err := core.FRA(f, core.FRAOptions{K: k, Rc: 10, GridN: gridN})
				if err != nil {
					t.Fatalf("field %d k=%d gridN=%d: %v", fi, k, gridN, err)
				}
				put(uint64(len(p.Nodes)))
				for _, n := range p.Nodes {
					put(math.Float64bits(n.X))
					put(math.Float64bits(n.Y))
				}
				put(uint64(p.Refined))
				put(uint64(p.Relays))
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != fraPlacementDigest {
		t.Errorf("FRA placement digest = %s, want %s", got, fraPlacementDigest)
	}
}
