// Benchmarks regenerating every figure of the paper's evaluation
// (Section 6). The paper has no numbered tables; Figs. 1 and 3-10 are its
// complete quantitative content (Figs. 2 and 4 are schematics, encoded as
// unit tests TestFRARefinementStep and TestLCMScenarioFig4). Each bench
// reports its headline quantities as custom benchmark metrics, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the whole evaluation. Resolutions are reduced relative to the
// paper's one-meter lattice to keep iterations short; cmd/evalall -full
// runs the full-resolution version.
package repro

import (
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/curvature"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/field"
	"repro/internal/surface"
	"repro/internal/sweep"
)

const (
	benchGridN  = 50 // local-error lattice divisions
	benchDeltaN = 50 // δ integration lattice divisions
)

func benchForest() *field.Forest {
	return field.NewForest(field.DefaultForestConfig())
}

// BenchmarkFig1ReferenceSurface regenerates the paper's Fig. 1: the
// reference light surface over the 100×100 m² region, rendered from the
// synthetic GreenOrbs stand-in.
func BenchmarkFig1ReferenceSurface(b *testing.B) {
	ref := benchForest().Reference()
	pos := field.GridPositions(ref.Bounds(), 100)
	var lo, hi, sum float64
	for i := 0; i < b.N; i++ {
		lo, hi, sum = math.Inf(1), math.Inf(-1), 0
		for _, p := range pos {
			z := ref.Eval(p)
			lo, hi, sum = math.Min(lo, z), math.Max(hi, z), sum+z
		}
		if err := surface.RenderASCII(io.Discard, ref, 100, 50); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lo, "min_klux")
	b.ReportMetric(hi, "max_klux")
	b.ReportMetric(sum/float64(len(pos)), "mean_klux")
}

// BenchmarkFig3CWDvsUniform regenerates Fig. 3: 16 nodes approximating the
// Peaks(100) surface with Rc = 30, uniform versus curvature-weighted
// distribution. Reported metrics: δ for both patterns and the CWD/uniform
// total-curvature ratio (Eqn 10's objective).
func BenchmarkFig3CWDvsUniform(b *testing.B) {
	f := field.Peaks(Square(100))
	opts := core.DefaultCWDOptions(16)
	var rows []eval.CWDRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.CompareCWD(f, opts, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Delta, "δ_uniform")
	b.ReportMetric(rows[1].Delta, "δ_cwd")
	b.ReportMetric(rows[1].TotalCurvature/rows[0].TotalCurvature, "curv_ratio")
}

// benchFRA runs one FRA placement and reports its δ and composition —
// shared by the Fig. 5 and Fig. 6 benches.
func benchFRA(b *testing.B, k int) {
	b.Helper()
	ref := benchForest().Reference()
	opts := core.FRAOptions{K: k, Rc: 10, GridN: benchGridN}
	var p core.Placement
	var ev core.Evaluation
	for i := 0; i < b.N; i++ {
		var err error
		p, err = core.FRA(ref, opts)
		if err != nil {
			b.Fatal(err)
		}
		ev, err = core.Evaluate(ref, p, opts.Rc, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !ev.Connected {
		b.Fatalf("FRA k=%d violated the connectivity constraint", k)
	}
	b.ReportMetric(ev.Delta, "δ")
	b.ReportMetric(float64(p.Refined), "refined")
	b.ReportMetric(float64(p.Relays), "relays")
}

// BenchmarkFig5FRA30 regenerates Fig. 5: the rebuilt surface with k = 30 —
// most of the budget goes to connectivity, coarse reconstruction.
func BenchmarkFig5FRA30(b *testing.B) { benchFRA(b, 30) }

// BenchmarkFig6FRA100 regenerates Fig. 6: k = 100 — enough refinement
// positions for a smooth reconstruction.
func BenchmarkFig6FRA100(b *testing.B) { benchFRA(b, 100) }

// BenchmarkFig7DeltaVsK regenerates Fig. 7: δ versus k for FRA and random
// deployment, as the scenario sweep cmd/osd -sweep runs. Reported metrics:
// δ at k = 100 for both curves and the saturation δ at k = 200 (the
// paper's "converge into a nearly constant δ" floor past k ≈ 125).
func BenchmarkFig7DeltaVsK(b *testing.B) {
	spec := sweep.Spec{
		Name:        "fig7",
		Fields:      []sweep.FieldSpec{{Kind: "forest"}},
		Ks:          []int{10, 50, 100, 150, 200},
		Rcs:         []float64{10},
		Seeds:       []int64{1},
		GridN:       benchGridN,
		DeltaN:      benchDeltaN,
		RandomDraws: 3,
	}
	var rows []eval.DeltaVsKRow
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(spec, sweep.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rows, err = sweep.DeltaVsKRows(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].Delta, "δ_fra_k100")
	b.ReportMetric(rows[2].Random, "δ_rand_k100")
	b.ReportMetric(rows[4].Delta, "δ_fra_k200")
}

// BenchmarkFig8CMAInitial regenerates Fig. 8: the 100-node connected grid
// at t = 10:00 and its initial reconstruction quality.
func BenchmarkFig8CMAInitial(b *testing.B) {
	forest := benchForest()
	var d float64
	for i := 0; i < b.N; i++ {
		w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), engine.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if !w.Connected() {
			b.Fatal("initial grid not connected")
		}
		d, err = w.Delta(benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d, "δ_t0")
}

// BenchmarkFig9CMAConverging regenerates Fig. 9: the swarm after 25
// minutes of CMA (t = 10:25), when nodes "barely move" near their
// curvature-weighted balance.
func BenchmarkFig9CMAConverging(b *testing.B) {
	forest := benchForest()
	var d, disp float64
	for i := 0; i < b.N; i++ {
		w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), engine.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		var last engine.StepStats
		for s := 0; s < 25; s++ {
			last, err = w.Step()
			if err != nil {
				b.Fatal(err)
			}
		}
		if !w.Connected() {
			b.Fatal("network disconnected")
		}
		d, err = w.Delta(benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
		disp = last.MeanDisplacement
	}
	b.ReportMetric(d, "δ_t25")
	b.ReportMetric(disp, "disp_t25")
}

// BenchmarkFig10DeltaVsTime regenerates Fig. 10: δ over 45 minutes of CMA
// from the connected grid, plus the paper's closing comparison — converged
// CMA δ versus FRA δ at the same k (paper: ratio ≈ 1.16).
func BenchmarkFig10DeltaVsTime(b *testing.B) {
	forest := benchForest()
	var rows []eval.DeltaVsTimeRow
	var ratio float64
	for i := 0; i < b.N; i++ {
		w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), engine.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rows, err = eval.DeltaVsTime(w, 45, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
		endSlice := field.Slice(forest, w.Time())
		p, err := core.FRA(endSlice, core.FRAOptions{K: 100, Rc: 10, GridN: benchGridN})
		if err != nil {
			b.Fatal(err)
		}
		fra, err := core.Evaluate(endSlice, p, 10, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].Delta / fra.Delta
	}
	b.ReportMetric(rows[0].Delta, "δ_t0")
	b.ReportMetric(rows[15].Delta, "δ_t15")
	b.ReportMetric(rows[len(rows)-1].Delta, "δ_t45")
	if conv, ok := eval.ConvergenceTime(rows); ok {
		b.ReportMetric(conv, "converge_min")
	}
	b.ReportMetric(ratio, "cma_over_fra")
}

// BenchmarkAblationForesight compares FRA with and without the foresight
// step: pure refinement reaches a lower δ but leaves the network in
// pieces, quantifying what the connectivity constraint costs.
func BenchmarkAblationForesight(b *testing.B) {
	ref := benchForest().Reference()
	var withF, withoutF core.Evaluation
	for i := 0; i < b.N; i++ {
		opts := core.FRAOptions{K: 60, Rc: 10, GridN: benchGridN}
		p1, err := core.FRA(ref, opts)
		if err != nil {
			b.Fatal(err)
		}
		withF, err = core.Evaluate(ref, p1, opts.Rc, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
		opts.DisableForesight = true
		p2, err := core.FRA(ref, opts)
		if err != nil {
			b.Fatal(err)
		}
		withoutF, err = core.Evaluate(ref, p2, opts.Rc, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(withF.Delta, "δ_foresight")
	b.ReportMetric(withoutF.Delta, "δ_refine_only")
	b.ReportMetric(float64(withoutF.Components), "components_refine_only")
}

// BenchmarkAblationForces sweeps the repulsion weight β of Eqn 18,
// measuring δ after 20 minutes of CMA — the design-choice study behind the
// paper's empirical β = 2.
func BenchmarkAblationForces(b *testing.B) {
	forest := benchForest()
	betas := []float64{0, 1, 2, 4}
	deltas := make([]float64, len(betas))
	for i := 0; i < b.N; i++ {
		for j, beta := range betas {
			opts := engine.DefaultOptions()
			opts.Config.Beta = beta
			w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), opts)
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < 20; s++ {
				if _, err := w.Step(); err != nil {
					b.Fatal(err)
				}
			}
			deltas[j], err = w.Delta(benchDeltaN)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(deltas[0], "δ_beta0")
	b.ReportMetric(deltas[1], "δ_beta1")
	b.ReportMetric(deltas[2], "δ_beta2")
	b.ReportMetric(deltas[3], "δ_beta4")
}

// BenchmarkAblationLeastSquares compares the QR, normal-equation and
// Huber IRLS least-squares backends of the curvature fit (Eqn 11) on one
// disc, each through a warmed per-worker Fitter as the engine runs them;
// the curvature package's tests pin down that QR and normal agree.
func BenchmarkAblationLeastSquares(b *testing.B) {
	f := field.Peaks(Square(100))
	sampler := field.NewSampler(0, 1)
	samples := sampler.Disc(f, V2(50, 76), 5)
	for _, bc := range []struct {
		name   string
		method curvature.Method
	}{{"qr", curvature.QR}, {"normal", curvature.Normal}, {"huber", curvature.Huber}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			fitter := curvature.NewFitter(bc.method)
			for i := 0; i < b.N; i++ {
				if _, err := fitter.Fit(V2(50, 76), samples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInterp compares the Delaunay reconstruction against a
// nearest-sample reconstruction for the same 100-node FRA placement — the
// choice of DT(x, y) as the interpolator (paper Section 3.1).
func BenchmarkAblationInterp(b *testing.B) {
	ref := benchForest().Reference()
	p, err := core.FRA(ref, core.FRAOptions{K: 100, Rc: 10, GridN: benchGridN})
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]field.Sample, 0, len(p.Nodes)+len(p.Anchors))
	for _, pos := range append(p.Anchors, p.Nodes...) {
		samples = append(samples, field.Sample{Pos: pos, Z: ref.Eval(pos)})
	}
	var dtDelta, nnDelta float64
	for i := 0; i < b.N; i++ {
		dtDelta, err = surface.DeltaSamples(ref, samples, benchDeltaN)
		if err != nil {
			b.Fatal(err)
		}
		nn := nearestField{region: ref.Bounds(), samples: samples}
		nnDelta = surface.Delta(ref, nn, benchDeltaN)
	}
	b.ReportMetric(dtDelta, "δ_delaunay")
	b.ReportMetric(nnDelta, "δ_nearest")
}

// nearestField reconstructs by nearest-sample lookup (the ablation
// comparator for Delaunay interpolation).
type nearestField struct {
	region  Rect
	samples []field.Sample
}

func (n nearestField) Bounds() Rect { return n.region }

func (n nearestField) Eval(p Vec2) float64 {
	best, bestD := 0, p.Dist2(n.samples[0].Pos)
	for i := 1; i < len(n.samples); i++ {
		if d := p.Dist2(n.samples[i].Pos); d < bestD {
			best, bestD = i, d
		}
	}
	return n.samples[best].Z
}
