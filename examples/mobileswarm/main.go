// Mobileswarm: 100 mobile CPS nodes explore a time-varying forest-light
// field with the distributed CMA controller over a lossy radio. The swarm
// starts as a connected grid with no global knowledge and redistributes
// toward the curvature-weighted pattern while the LCM keeps the network
// connected — the paper's OSTD scenario (Figs. 8-10).
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

const (
	nodes = 100
	slots = 30
)

// slotRow is one slot's statistics and the connectivity verdict after it.
type slotRow struct {
	st        repro.StepStats
	connected bool
}

// run drives the swarm for slots minutes with slightly noisy sensors and
// 10% of hello deliveries lost independently (a Good-only Gilbert–Elliott
// channel), all seeded by seed. It returns the initial positions, every
// slot's row and the final world.
func run(seed int64) ([]repro.Vec2, []slotRow, *repro.World) {
	forest := repro.NewForest(repro.DefaultForestConfig())
	opts := repro.DefaultWorldOptions()
	opts.NoiseStd = 0.05 // slightly noisy sensors
	opts.Seed = seed
	opts.Faults = repro.NewFaultInjector(nodes, repro.FaultConfig{
		Seed: seed,
		Link: repro.GilbertElliott{LossGood: 0.1}, // 10% of hellos are lost
	})
	w, err := repro.NewWorld(forest, repro.GridLayout(forest.Bounds(), nodes), opts)
	if err != nil {
		log.Fatal(err)
	}
	initial := w.Positions()
	rows := make([]slotRow, 0, slots)
	for slot := 0; slot < slots; slot++ {
		st, err := w.Step()
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, slotRow{st: st, connected: w.Connected()})
	}
	return initial, rows, w
}

func main() {
	log.SetFlags(0)

	initial, rows, swarm := run(1)
	region := repro.DefaultForestConfig().Region
	rc := swarm.Rc()

	fmt.Println("initial topology (10x10 grid, spacing = Rc):")
	if err := repro.RenderTopology(os.Stdout, region, initial, rc, 72, 24); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nt(min)  moved  drags  mean|Fs|  mean_disp  connected")
	for i, r := range rows {
		if (i+1)%5 == 0 {
			fmt.Printf("%5.0f  %5d  %5d  %8.2f  %9.3f  %v\n",
				r.st.T, r.st.Moved, r.st.Followed, r.st.MeanForce,
				r.st.MeanDisplacement, r.connected)
		}
	}

	fmt.Println("\ntopology after 30 minutes of CMA:")
	if err := repro.RenderTopology(os.Stdout, region, swarm.Positions(), rc, 72, 24); err != nil {
		log.Fatal(err)
	}
	if !swarm.Connected() {
		log.Fatal("connectivity invariant violated")
	}
	fmt.Println("\nnetwork stayed connected throughout — the LCM at work.")
}
