package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricListsMatchBenchmarkFile pins the code's metric lists to the
// ones BENCHMARK.json declares, units included.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, c := range []struct {
		name       string
		file, code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", c.name, len(c.file), len(c.code))
		}
		for i := range c.file {
			if c.file[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.name, i, c.file[i], c.code[i])
			}
		}
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// TestWorkloadsTiny runs every workload at tiny size, untraced and
// traced, on two seeds, and checks that the result line is correct and
// carries every named metric, finite and with its unit.
func TestWorkloadsTiny(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, seed := range []int64{3, 4} {
			for _, trace := range []bool{false, true} {
				o := options{workload: w.Name, seed: seed, seconds: 0.01, trace: trace,
					out: t.TempDir(), root: "..", tiny: true}
				var buf bytes.Buffer
				ok, err := run(o, &buf)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.Name, seed, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%s: last line is not the result: %v", w.Name, err)
				}
				if !ok || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("%s seed %d trace %v: ok=%v result %+v\n%s", w.Name, seed, trace, ok, res, buf.String())
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, present := res.Metrics[d.Name]
					switch {
					case !present:
						t.Errorf("%s trace %v: metric %s missing", w.Name, trace, d.Name)
					case !finite(v.Value):
						t.Errorf("%s trace %v: metric %s = %g", w.Name, trace, d.Name, v.Value)
					case v.Unit == "" || v.Unit != d.Unit:
						t.Errorf("%s trace %v: metric %s unit %q, want %q", w.Name, trace, d.Name, v.Unit, d.Unit)
					}
				}
			}
		}
	}
}

// TestCompareRefusesOtherHost checks that the compare step refuses
// records stamped on different machines and accepts same-host ones.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	rec := record{Host: stampHost("..", 1), Workload: "swarm_track",
		Result: resultLine{Metrics: map[string]metricValue{"latency_p50_ms": {Value: 10, Unit: "ms"}}}}
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if err := writeJSONFile(a, rec); err != nil {
		t.Fatal(err)
	}
	rec.Host.Seed = 2
	rec.Result.Metrics["latency_p50_ms"] = metricValue{Value: 9, Unit: "ms"}
	if err := writeJSONFile(b, rec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareMain([]string{a, b}, &out); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	if !strings.Contains(out.String(), "-10.0%") {
		t.Errorf("compare output lacks the change:\n%s", out.String())
	}
	rec.Host.CPUModel += " (other)"
	if err := writeJSONFile(b, rec); err != nil {
		t.Fatal(err)
	}
	if err := compareMain([]string{a, b}, &out); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("different host not refused: %v", err)
	}
}

// TestSelfTime checks span self time against hand-built intervals.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "slot", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}}
	st := tr.stats()
	if got := st["slot"].selfMs[0] * 1e6; math.Abs(got-40) > 1e-6 {
		t.Errorf("slot self = %g ns, want 40", got)
	}
	if got := st["a"].selfMs[0] * 1e6; math.Abs(got-30) > 1e-6 {
		t.Errorf("leaf self = %g ns, want 30", got)
	}
}
