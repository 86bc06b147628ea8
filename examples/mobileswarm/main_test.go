package main

import "testing"

// TestConnectedEverySlot pins the example's closing claim: under sensing
// noise and 10% hello loss the LCM keeps the swarm connected on every one
// of its slots, for several loss and noise seeds.
func TestConnectedEverySlot(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, rows, _ := run(seed)
		if len(rows) != slots {
			t.Fatalf("seed %d: %d slots, want %d", seed, len(rows), slots)
		}
		for i, r := range rows {
			if !r.connected {
				t.Errorf("seed %d: disconnected after slot %d", seed, i+1)
			}
		}
	}
}
