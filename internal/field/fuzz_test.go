package field

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// FuzzReadTrace feeds arbitrary bytes to the CSV trace parser: it must
// never panic, and anything it accepts must round-trip through WriteTrace
// and parse to the same records.
func FuzzReadTrace(f *testing.F) {
	f.Add("t,x,y,z\n0,1,2,3\n")
	f.Add("t,x,y,z\n")
	f.Add("")
	f.Add("t,x,y,z\n1e300,-0,2.5,NaN\n")
	f.Add("a,b\n1,2\n")
	f.Add("t,x,y,z\n0,1,2\n")
	f.Fuzz(func(t *testing.T, input string) {
		records, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, records); err != nil {
			t.Fatalf("accepted records failed to serialize: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if len(again) != len(records) {
			t.Fatalf("round-trip length %d != %d", len(again), len(records))
		}
		for i := range records {
			// NaN breaks equality; compare serialized forms instead.
			if records[i] != again[i] &&
				!(records[i].Z != records[i].Z && again[i].Z != again[i].Z) {
				t.Fatalf("record %d changed: %+v vs %+v", i, records[i], again[i])
			}
		}
	})
}

// FuzzTraceReplay feeds arbitrary CSV to the full replay pipeline:
// parse, serialize back, rebuild, and evaluate. Invariants: no panics on
// torn/duplicate/unsorted rows; a replay built from the round-tripped
// records is structurally identical to the original; and evaluating at a
// stored sample's own position and timestamp returns its value bit-equal
// (the determinism contract Replay documents), except when a distinct
// position collapses to computed distance zero (subnormal coordinate
// differences can underflow in Dist2), where first-wins applies.
func FuzzTraceReplay(f *testing.F) {
	f.Add("t,x,y,z\n0,20,50,10\n0,80,50,4\n10,20,50,2\n10,80,50,8\n")
	f.Add("t,x,y,z\n10,80,50,8\n0,20,50,10\n0,20,50,99\n10,20,50,2\n")
	f.Add("t,x,y,z\n0,-0,0,1\n0,0,0,2\n5,1e-310,0,3\n")
	f.Add("t,x,y,z\n0,1,2,NaN\n0,1,2,3\n")
	f.Add("t,x,y,z\nNaN,1,2,3\n")
	f.Add("t,x,y,z\n0,Inf,2,3\n")
	f.Fuzz(func(t *testing.T, input string) {
		records, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return // rejected CSV is fine; panics are not
		}
		region := geom.Square(100)
		rp, err := NewReplay(region, records)
		if err != nil {
			return // NaN timestamps / non-finite positions / empty: fine
		}

		// Serialization identity at the replay level: rebuilding from the
		// round-tripped CSV must give the same epochs and the same values.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, records); err != nil {
			t.Fatalf("accepted records failed to serialize: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		rp2, err := NewReplay(region, again)
		if err != nil {
			t.Fatalf("round-tripped records rejected: %v", err)
		}
		if len(rp2.times) != len(rp.times) {
			t.Fatalf("round-trip epochs %d != %d", len(rp2.times), len(rp.times))
		}
		for i, tm := range rp.times {
			if math.Float64bits(rp2.times[i]) != math.Float64bits(tm) {
				t.Fatalf("round-trip epoch time %d: %g != %g", i, rp2.times[i], tm)
			}
		}

		// Bit-equality at record timestamps: the stored (deduped) samples
		// are the source of truth. A sample is exempt only when an earlier
		// sample of the same epoch sits at computed distance zero.
		for i, tm := range rp.times {
			epoch := rp.epochs[i]
			for k, s := range epoch {
				collision := false
				for j := 0; j < k; j++ {
					if s.Pos.Dist2(epoch[j].Pos) == 0 {
						collision = true
						break
					}
				}
				if collision {
					continue
				}
				got := rp.EvalAt(s.Pos, tm)
				if math.Float64bits(got) != math.Float64bits(s.Z) {
					t.Fatalf("EvalAt(%v, %g) = %v (bits %016x), want stored %v (bits %016x)",
						s.Pos, tm, got, math.Float64bits(got), s.Z, math.Float64bits(s.Z))
				}
				if g2 := rp2.EvalAt(s.Pos, tm); math.Float64bits(g2) != math.Float64bits(got) {
					t.Fatalf("round-tripped replay diverges at (%v, %g): %v != %v", s.Pos, tm, g2, got)
				}
			}
		}

		// Arbitrary queries (between epochs, outside the span) must not
		// panic, whatever the values are.
		for _, r := range records {
			_ = rp.EvalAt(r.Pos, r.T+0.5)
			_ = rp.EvalAt(r.Pos, r.T-0.5)
		}
		_ = rp.EvalAt(geom.V2(0, 0), math.Inf(1))
	})
}
