// Forestlight: an end-to-end GreenOrbs-style workflow. Generate a
// synthetic forest-light trace (the stand-in for the project's published
// data), replay one epoch as the historical reference, plan a deployment
// with FRA against it, and then check how that fixed deployment holds up
// as the environment evolves — quantifying the paper's OSD assumption
// that "the change of environment has low correlation with time".
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
	"repro/internal/field"
)

func main() {
	log.SetFlags(0)

	// 1. Generate a trace: full-region reports at four epochs, like the
	//    hourly GreenOrbs reports (here minutes for a morning window).
	forest := repro.NewForest(repro.DefaultForestConfig())
	epochs := []float64{0, 15, 30, 45}
	records := field.GenerateTrace(forest, 100, epochs, field.NewSampler(0, 1))
	var buf bytes.Buffer
	if err := field.WriteTrace(&buf, records); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d records, %d bytes of CSV\n", len(records), buf.Len())

	// 2. Replay the t=0 epoch as the historical reference surface.
	replayed, err := field.ReadTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}
	replay, err := field.NewReplay(forest.Bounds(), replayed)
	if err != nil {
		log.Fatal(err)
	}
	historical := field.Slice(replay, 0)
	n := 0
	for _, r := range replayed {
		if r.T == 0 {
			n++
		}
	}
	fmt.Printf("replayed epoch t=0 with %d samples\n", n)

	// 3. Plan the deployment against the historical surface.
	opts := repro.DefaultFRAOptions(80)
	placement, err := repro.FRA(historical, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FRA: %d refined + %d relays, connected=%v\n",
		placement.Refined, placement.Relays,
		repro.Connected(placement.Nodes, opts.Rc))

	// 4. Evaluate the fixed deployment against each later epoch: how fast
	//    does the historical plan go stale as the sun flecks drift?
	fmt.Println("\nepoch  δ(fixed deployment)  δ(re-planned)")
	for _, t := range epochs {
		slice := field.Slice(forest, t)
		ev, err := repro.Evaluate(slice, placement, opts.Rc, 100)
		if err != nil {
			log.Fatal(err)
		}
		fresh, err := repro.FRA(slice, opts)
		if err != nil {
			log.Fatal(err)
		}
		fev, err := repro.Evaluate(slice, fresh, opts.Rc, 100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5.0f  %19.1f  %13.1f\n", t, ev.Delta, fev.Delta)
	}
	fmt.Println("\nThe gap between the columns is the cost of the static-world")
	fmt.Println("assumption — the motivation for mobile nodes and CMA (OSTD).")
}
