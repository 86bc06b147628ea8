package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json: a --trace 0 run
// prints every end-to-end metric, a --trace 1 run every per-layer one.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the user-visible metrics, measured with tracing off. The
// unit of work ("op") is a slot on swarm_track, a request on serve_place
// and a whole sweep pass on sweep_grid; throughput counts slots,
// requests and cells.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"delta", "delta"},
	{"ok_share", "share"},
}

// perLayer are the traced run's layer metrics. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"engine.sense_ms", "ms"},
	{"engine.fit_ms", "ms"},
	{"engine.exchange_ms", "ms"},
	{"engine.plan_ms", "ms"},
	{"engine.resolve_ms", "ms"},
	{"engine.move_ms", "ms"},
	{"engine.account_ms", "ms"},
	{"engine.slot_other_ms", "ms"},
	{"engine.samples_per_node", "count"},
	{"engine.neighbors_per_node", "count"},
	{"engine.neighbor_reuse_share", "share"},
	{"engine.index_rebuilds", "1/slot"},
	{"mobile.moved_share", "share"},
	{"core.fra_ms", "ms"},
	{"core.fra_attempts_per_pick", "count"},
	{"core.relay_share", "share"},
	{"strategy.place_ms", "ms"},
	{"surface.evaluate_ms", "ms"},
	{"surface.triangulate_ms", "ms"},
	{"sim.delta_evals", "1/cell"},
	{"serve.cache_hit_share", "share"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.field_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"sweep.busy_share", "share"},
	{"sweep.cell_p50_ms", "ms"},
	{"sweep.cell_max_ms", "ms"},
	{"sweep.checkpoint_ms", "ms"},
	{"fault.deaths", "1/pass"},
	{"fault.link_drops", "1/pass"},
	{"trace_overhead_share", "share"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean, or 0 for no samples.
func mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
