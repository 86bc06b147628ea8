// Command perfbench is the repository benchmark. It runs one seeded
// workload in-process, checks that the program's outputs are correct,
// stamps the host, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, from a run that
// records spans around every layer call (written as JSONL to -out).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload swarm_track --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare old.json new.json
//
// Workloads:
//
//	swarm_track  a 2000-node CMA swarm stepped slot by slot (engine layers)
//	serve_place  a closed loop of 2 clients against an in-process server
//	sweep_grid   sweep.Run with 2 workers and a checkpoint file
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span logs and result records
	root     string // repository root, for the host stamp
	tiny     bool   // self-test sizes
}

// outcome is what one workload invocation measured and checked.
type outcome struct {
	attempted, failed int
	checks            []check
	metrics           map[string]float64
	notes             []string
	tr                *tracer
}

// check is one output-correctness assertion.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) check(name string, ok bool, format string, v ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, v...)})
}

func (o *outcome) note(format string, v ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, v...))
}

var workloads = map[string]func(options) (*outcome, error){
	"swarm_track": runSwarm,
	"serve_place": runServe,
	"sweep_grid":  runSweep,
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result kept in -out for the compare step.
type record struct {
	Host     hostStamp  `json:"host"`
	Workload string     `json:"workload"`
	Trace    bool       `json:"trace"`
	Seconds  float64    `json:"seconds"`
	Result   resultLine `json:"result"`
	Checks   []check    `json:"checks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: swarm_track, serve_place or sweep_grid")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span logs and result records")
	flag.StringVar(&o.root, "root", ".", "repository root, for the host stamp")
	flag.Parse()
	o.trace = trace == 1
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one invocation, prints its report to w (the result line
// last) and reports whether every output check passed.
func run(o options, w io.Writer) (bool, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return false, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	host := stampHost(o.root, o.seed)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hostJSON)
	start := time.Now()
	out, err := fn(o)
	if err != nil {
		return false, fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	failShare := ratio(float64(out.failed), float64(out.attempted))
	out.metrics["ok_share"] = 1 - failShare
	if o.trace {
		defs = perLayer
		spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-s%d.jsonl", o.workload, o.seed))
		if err := out.tr.writeJSONL(spans); err != nil {
			return false, err
		}
		out.note("spans: %d written to %s", len(out.tr.spans), spans)
	}
	res := resultLine{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue)}
	res.Correct = out.attempted > 0
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !o.trace {
			return false, fmt.Errorf("%s: end-to-end metric %s not measured", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		out.check("finite "+d.Name, finite(v), "%g", v)
	}
	for _, c := range out.checks {
		res.Correct = res.Correct && c.OK
		if !c.OK {
			fmt.Fprintf(w, "FAILED check %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "checks %d passed of %d; attempted %d failed %d; fail_share %g; wall %.1fs; GOMAXPROCS %d\n",
		passed(out.checks), len(out.checks), out.attempted, out.failed,
		failShare, time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	rec := record{Host: host, Workload: o.workload, Trace: o.trace, Seconds: o.seconds, Result: res, Checks: out.checks}
	recPath := filepath.Join(o.out, fmt.Sprintf("result-%s-s%d-t%d.json", o.workload, o.seed, boolInt(o.trace)))
	if err := writeJSONFile(recPath, rec); err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, nil
}

func passed(cs []check) int {
	n := 0
	for _, c := range cs {
		if c.OK {
			n++
		}
	}
	return n
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repeatFor calls fn with run indices 0, 1, ... until d has elapsed
// since the first call, and at least minRuns times.
func repeatFor(d time.Duration, minRuns int, fn func(run int) error) error {
	start := time.Now()
	for run := 0; run < minRuns || time.Since(start) < d; run++ {
		if err := fn(run); err != nil {
			return err
		}
	}
	return nil
}

// allocBytes returns the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// phaseDur is the measured time of one phase: all of -seconds untraced,
// half of it for each of the untraced and traced phases of -trace 1.
func phaseDur(o options) time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}
