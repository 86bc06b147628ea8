// Extension benchmarks: experiments beyond the paper's figures, covering
// its named future-work direction (trace sampling), the network cost and
// robustness of the connectivity constraint, and the spatial-index
// substrate that keeps large swarms cheap.
package repro

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/graph"
	"repro/internal/spatial"
)

// BenchmarkExtTraceSampling quantifies the paper's future-work idea
// ("trace sampling of mobile nodes"): δ from point samples versus δ from
// point plus path samples, for the same 10-minute CMA run.
func BenchmarkExtTraceSampling(b *testing.B) {
	forest := benchForest()
	var point, traced float64
	for i := 0; i < b.N; i++ {
		opts := engine.DefaultOptions()
		opts.Trace = engine.TraceOptions{Enabled: true, Spacing: 0.5, MaxAge: 10}
		w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), opts)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 10; s++ {
			if _, err := w.Step(); err != nil {
				b.Fatal(err)
			}
		}
		point, err = w.Delta(benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
		traced, err = w.DeltaTrace(benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(point, "δ_point")
	b.ReportMetric(traced, "δ_trace")
	b.ReportMetric(point/traced, "improvement")
}

// BenchmarkExtNetworkCost measures what the connectivity constraint buys
// and costs: convergecast transmissions, radio energy and single points of
// failure for FRA networks of growing size.
func BenchmarkExtNetworkCost(b *testing.B) {
	ref := benchForest().Reference()
	var rows []NetworkRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = NetworkVsK(ref, []int{50, 100}, 10, benchGridN, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 0 {
		b.Fatal("no connected placements")
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.TotalTx), "tx_k100")
	b.ReportMetric(last.Energy, "energy_k100")
	b.ReportMetric(float64(last.ArticulationPoints), "art_points_k100")
}

// BenchmarkExtSpatialIndex compares unit-disk graph construction with and
// without the spatial hash at a swarm size beyond the paper's k = 200.
func BenchmarkExtSpatialIndex(b *testing.B) {
	pts := field.RandomPositions(Square(1000), 3000, 7)
	b.Run("quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Forced below-threshold path via chunking is not possible;
			// emulate the quadratic scan directly.
			count := 0
			for x := 0; x < len(pts); x++ {
				for y := x + 1; y < len(pts); y++ {
					if pts[x].Dist(pts[y]) <= 15 {
						count++
					}
				}
			}
			if count == 0 {
				b.Fatal("no edges")
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := spatial.NewIndex(pts, 15)
			if err != nil {
				b.Fatal(err)
			}
			count := 0
			idx.Pairs(15, func(int, int) { count++ })
			if count == 0 {
				b.Fatal("no edges")
			}
		}
	})
	b.Run("graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := graph.NewUnitDisk(pts, 15)
			if g.NumEdges() == 0 {
				b.Fatal("no edges")
			}
		}
	})
}

// BenchmarkExtCentralVsCMA runs the measurable form of the paper's
// centralization critique: CMA against a periodically replanning base
// station, same field, same velocity limit.
func BenchmarkExtCentralVsCMA(b *testing.B) {
	forest := benchForest()
	var rows []MobileRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = CompareMobile(forest, 100, 20, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].DeltaEnd, "δ_cma")
	b.ReportMetric(rows[1].DeltaEnd, "δ_central")
	b.ReportMetric(rows[0].ConnectedFrac, "conn_cma")
	b.ReportMetric(rows[1].ConnectedFrac, "conn_central")
}

// BenchmarkExtRepulseGuardBand probes the repulsion guard band: shrinking
// the repulsion range below Rc quiets the perimeter tug-of-war between
// repulsion and the LCM (several-fold lower per-slot displacement, closer
// to the paper's "nodes barely move") at the cost of a few percent of
// mid-run δ — a tracking-versus-quiescence knob. The default stays at the
// paper's exact Eqn 17.
func BenchmarkExtRepulseGuardBand(b *testing.B) {
	forest := benchForest()
	var exact, banded float64
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{1.0, 0.95} {
			opts := engine.DefaultOptions()
			opts.Config.RepulseFrac = frac
			w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), opts)
			if err != nil {
				b.Fatal(err)
			}
			var disp float64
			for s := 0; s < 20; s++ {
				st, err := w.Step()
				if err != nil {
					b.Fatal(err)
				}
				disp = st.MeanDisplacement
			}
			if frac == 1.0 {
				exact = disp
			} else {
				banded = disp
			}
		}
	}
	b.ReportMetric(exact, "disp_exact_rc")
	b.ReportMetric(banded, "disp_guard_band")
}
