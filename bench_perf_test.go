// Performance benchmark for the banded parallel δ integration. The
// large-k FRA runs live in the benchmark scenario table
// (internal/benchsuite).
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/surface"
)

// BenchmarkDeltaParallel measures the banded δ integration over a large
// TIN at a fine lattice — the inner loop of every placement evaluation.
func BenchmarkDeltaParallel(b *testing.B) {
	f := benchForest().Reference()
	p, err := core.FRA(f, core.DefaultFRAOptions(500))
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]field.Sample, 0, len(p.Nodes)+len(p.Anchors))
	for _, pos := range p.Anchors {
		samples = append(samples, field.Sample{Pos: pos, Z: f.Eval(pos)})
	}
	for _, pos := range p.Nodes {
		samples = append(samples, field.Sample{Pos: pos, Z: f.Eval(pos)})
	}
	tin, err := surface.FromSamples(f.Bounds(), samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var delta float64
	for i := 0; i < b.N; i++ {
		delta = surface.Delta(f, tin, 200)
	}
	b.ReportMetric(delta, "delta")
}
