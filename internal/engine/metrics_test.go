package engine

import (
	"testing"

	"repro/internal/obs"
)

// TestMetricsBitIdentity is the observability layer's non-perturbation
// contract: a metrics-enabled run must be bit-identical — every stat and
// every position coordinate — to a metrics-free run, on both the clean
// and the fault-injected path.
func TestMetricsBitIdentity(t *testing.T) {
	const k, slots = 150, 6
	scenarios := []struct {
		name string
		opts func() Options
	}{
		{"clean", func() Options { return Options{} }},
		{"profile", func() Options { return profiledOpts(k, slots) }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			plain := newTestEngine(t, k, sc.opts())
			plainStats, plainBits := runRecorded(t, plain, slots)

			reg := obs.NewRegistry()
			opts := sc.opts()
			opts.Metrics = reg
			if opts.Faults != nil {
				opts.Faults.SetMetrics(reg)
			}
			observed := newTestEngine(t, k, opts)
			obsStats, obsBits := runRecorded(t, observed, slots)

			compareRuns(t, sc.name, plainStats, obsStats, plainBits, obsBits)

			// The registry must actually have watched the run.
			snap := reg.Snapshot()
			if got := snap.Counters["engine_slots_total"]; got != slots {
				t.Errorf("engine_slots_total = %d, want %d", got, slots)
			}
			h, ok := snap.Histograms["engine_stage_seconds_sense"]
			if !ok || h.Count != slots {
				t.Errorf("sense stage histogram = %+v, want %d observations", h, slots)
			}
			if step := snap.Histograms["engine_step_seconds"]; step.Count != slots || step.Sum <= 0 {
				t.Errorf("engine_step_seconds = %+v, want %d positive observations", step, slots)
			}
		})
	}
}

// TestMetricsStageAlignment checks that a custom pipeline gets one
// histogram per stage under its own name, including spliced-in stages.
func TestMetricsStageAlignment(t *testing.T) {
	reg := obs.NewRegistry()
	stages := append([]Stage{noopStage{}}, DefaultStages()...)
	e := newTestEngine(t, 80, Options{Stages: stages, Metrics: reg})
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, st := range stages {
		name := "engine_stage_seconds_" + st.Name()
		if h, ok := snap.Histograms[name]; !ok || h.Count != 1 {
			t.Errorf("%s: got %+v, want one observation", name, snap.Histograms[name])
		}
	}
}

// TestMetricsFaultCounters checks the injector's event counters add up
// against its own bookkeeping after a faulty run.
func TestMetricsFaultCounters(t *testing.T) {
	const k, slots = 120, 8
	reg := obs.NewRegistry()
	opts := profiledOpts(k, slots)
	opts.Metrics = reg
	opts.Faults.SetMetrics(reg)
	e := newTestEngine(t, k, opts)
	for s := 0; s < slots; s++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got, want := snap.Counters["fault_deaths_total"], int64(e.Injector().Deaths()); got != want {
		t.Errorf("fault_deaths_total = %d, injector says %d", got, want)
	}
	byCause := snap.Counters["fault_deaths_crash_total"] +
		snap.Counters["fault_deaths_scheduled_total"] +
		snap.Counters["fault_deaths_battery_total"]
	if byCause != snap.Counters["fault_deaths_total"] {
		t.Errorf("per-cause deaths %d != total %d", byCause, snap.Counters["fault_deaths_total"])
	}
	if got, want := snap.Gauges["fault_alive"], float64(e.Injector().AliveCount()); got != want {
		t.Errorf("fault_alive = %v, injector says %v", got, want)
	}
}
