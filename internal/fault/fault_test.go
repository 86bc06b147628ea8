package fault

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestZeroConfigIsInert(t *testing.T) {
	in := NewInjector(10, Config{Seed: 7})
	if in.Active() {
		t.Fatal("zero config reports Active")
	}
	in.BeginSlot(0)
	in.BeginSlot(1)
	for i := 0; i < 10; i++ {
		if !in.Alive(i) {
			t.Fatalf("node %d died under zero config", i)
		}
	}
	if in.DropLink(1, 0, 1) {
		t.Error("zero config dropped a delivery")
	}
	s := []Sample{{Pos: geom.V2(1, 2), Z: 3}}
	if got := in.CorruptSamples(0, s); &got[0] != &s[0] {
		t.Error("zero config copied the sample slice")
	}
}

func TestCrashScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, CrashProb: 0.1}
	a, b := NewInjector(50, cfg), NewInjector(50, cfg)
	for slot := 0; slot < 100; slot++ {
		a.BeginSlot(slot)
		b.BeginSlot(slot)
		for i := 0; i < 50; i++ {
			if a.Alive(i) != b.Alive(i) {
				t.Fatalf("slot %d node %d: divergent aliveness", slot, i)
			}
		}
	}
	if a.Deaths() == 0 {
		t.Error("no deaths over 100 slots at 10% crash rate")
	}
	if got := a.AliveCount() + a.Deaths(); got != 50 {
		t.Errorf("alive + deaths = %d under crash-stop, want 50", got)
	}
}

func TestCrashStopIsPermanent(t *testing.T) {
	in := NewInjector(20, Config{Seed: 3, CrashProb: 0.3})
	died := map[int]bool{}
	for slot := 0; slot < 50; slot++ {
		in.BeginSlot(slot)
		for i := 0; i < 20; i++ {
			if died[i] && in.Alive(i) {
				t.Fatalf("crash-stop node %d resurrected at slot %d", i, slot)
			}
			if !in.Alive(i) {
				died[i] = true
			}
		}
	}
	if len(died) == 0 {
		t.Fatal("nobody died at 30% per-slot crash rate over 50 slots")
	}
}

func TestScheduledEvents(t *testing.T) {
	in := NewInjector(4, Config{Seed: 1, Schedule: []Event{
		{Slot: 2, Node: 1, Up: false},
		{Slot: 5, Node: 1, Up: true},
		{Slot: 3, Node: 99, Up: false}, // out of range: ignored
	}})
	if !in.Active() {
		t.Fatal("schedule-only config reports inactive")
	}
	aliveAt := func(slot int) bool { in.BeginSlot(slot); return in.Alive(1) }
	for slot, want := range map[int]bool{0: true, 1: true} {
		if aliveAt(slot) != want {
			t.Errorf("slot %d alive = %v", slot, !want)
		}
	}
	for slot := 2; slot <= 6; slot++ {
		in.BeginSlot(slot)
		want := slot >= 5 // killed at 2, revived at 5
		if in.Alive(1) != want {
			t.Errorf("slot %d: alive(1) = %v, want %v", slot, in.Alive(1), want)
		}
	}
	if in.Deaths() != 1 {
		t.Errorf("deaths = %d, want 1", in.Deaths())
	}
}

func TestGilbertElliottDeterministicAndBursty(t *testing.T) {
	cfg := Config{Seed: 11, Link: GilbertElliott{
		PGoodToBad: 0.1, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.9,
	}}
	a, b := NewInjector(4, cfg), NewInjector(4, cfg)
	drops := 0
	const slots = 2000
	for slot := 0; slot < slots; slot++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				da := a.DropLink(slot, i, j)
				if db := b.DropLink(slot, i, j); da != db {
					t.Fatalf("slot %d link (%d,%d): divergent drop decision", slot, i, j)
				}
				if da {
					drops++
				}
			}
		}
	}
	// Stationary Bad fraction = pgb/(pgb+pbg) = 0.25, so the long-run loss
	// rate should be near 0.25·0.9 + 0.75·0.01 ≈ 0.23.
	rate := float64(drops) / float64(slots*6)
	if rate < 0.1 || rate > 0.4 {
		t.Errorf("long-run loss rate = %.3f, want ≈0.23", rate)
	}
}

func TestLinkOrderIndependence(t *testing.T) {
	// The drop decision for a link must not depend on how many other links
	// were queried before it: per-link streams are independent.
	cfg := Config{Seed: 11, Link: GilbertElliott{PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 0.8, LossGood: 0.05}}
	a, b := NewInjector(10, cfg), NewInjector(10, cfg)
	var seqA, seqB []bool
	for slot := 0; slot < 200; slot++ {
		seqA = append(seqA, a.DropLink(slot, 3, 7))
		// b queries other links too, in between.
		b.DropLink(slot, 0, 1)
		seqB = append(seqB, b.DropLink(slot, 3, 7))
		b.DropLink(slot, 2, 9)
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("slot %d: link (3,7) decision depends on other links", i)
		}
	}
}

func TestCorruptSamplesDropAndOutliers(t *testing.T) {
	cfg := Config{Seed: 2, SenseDropProb: 0.3, SenseOutlierProb: 0.2, SenseOutlierStd: 10}
	in := NewInjector(1, cfg)
	in2 := NewInjector(1, cfg)
	base := make([]Sample, 200)
	for i := range base {
		base[i] = Sample{Pos: geom.V2(float64(i), 0), Z: 1}
	}
	got := in.CorruptSamples(0, base)
	got2 := in2.CorruptSamples(0, base)
	if len(got) != len(got2) {
		t.Fatalf("determinism: %d vs %d survivors", len(got), len(got2))
	}
	if len(got) >= len(base) {
		t.Errorf("no samples dropped at 30%% drop rate (kept %d/%d)", len(got), len(base))
	}
	outliers := 0
	for i, s := range got {
		if s != got2[i] {
			t.Fatal("determinism: diverging sample values")
		}
		if math.Abs(s.Z-1) > 1e-9 {
			outliers++
		}
	}
	if outliers == 0 {
		t.Error("no outliers injected at 20% outlier rate")
	}
	for i := range base {
		if base[i].Z != 1 {
			t.Fatal("CorruptSamples mutated its input")
		}
	}
}

func TestBeginSlotRepeatIsNoop(t *testing.T) {
	in := NewInjector(30, Config{Seed: 9, CrashProb: 0.5})
	in.BeginSlot(0)
	alive := in.AliveMask(nil)
	in.BeginSlot(0) // repeat must not draw again
	for i, a := range in.AliveMask(nil) {
		if a != alive[i] {
			t.Fatalf("repeated BeginSlot changed node %d", i)
		}
	}
}

func TestProfileScaling(t *testing.T) {
	if Profile(0, 45, 1).Active() {
		t.Error("Profile(0) is active")
	}
	p := Profile(0.1, 45, 1)
	if !p.Active() {
		t.Fatal("Profile(0.1) inactive")
	}
	// Per-slot crash prob must compound to the run-level rate.
	run := 1 - math.Pow(1-p.CrashProb, 45)
	if math.Abs(run-0.1) > 1e-9 {
		t.Errorf("compounded crash rate = %v, want 0.1", run)
	}
	hi := Profile(0.5, 45, 1)
	if hi.CrashProb <= p.CrashProb || hi.SenseDropProb <= p.SenseDropProb {
		t.Error("Profile does not scale with rate")
	}
}

// TestProfileSpecValidate pins the accepted rate range [0, 1): every other
// value, NaN and the infinities included, is refused.
func TestProfileSpecValidate(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.5, 0.99} {
		if err := (ProfileSpec{Rate: rate}).Validate(); err != nil {
			t.Errorf("rate %v: %v", rate, err)
		}
	}
	for _, rate := range []float64{-0.1, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (ProfileSpec{Rate: rate}).Validate(); err == nil {
			t.Errorf("rate %v: want an error", rate)
		}
	}
}
