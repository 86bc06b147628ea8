// Command bench is the repo's performance harness: it runs the benchmark
// scenario table (internal/benchsuite) at each row's fixed iteration
// count, each gated row three times in interleaved rounds, measures the
// reproduction's quality metrics (δ, convergence), and writes a
// host-stamped, machine-readable BENCH_<rev>.json that the CI
// bench-regression job compares against the merge base.
//
// Usage:
//
//	bench                                  # full run, writes BENCH_<rev>.json
//	bench -quick -out /tmp/b.json          # one iteration per scenario
//	bench -scenario step_100k -quick       # only the named scenarios
//	bench -compare base.json pr.json       # exit 1 on a gated regression
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/field"
)

// The -compare tolerances: a gated row fails when its ns/op grows by more
// than timeTol, or its allocs/op or bytes/op by more than allocTol, so an
// allocation regression fails before it costs enough time to trip timeTol.
const (
	timeTol  = 0.15
	allocTol = 0.10
)

// gatedRuns is how often a full run measures each gated row. The runs are
// interleaved — every row once, then the gated rows again in table order,
// round after round — so a slow spell of the host lands on several rows'
// single runs rather than on all of one row's runs, and the report keeps
// each row's median.
const gatedRuns = 3

// Result is one benchmark scenario's measurement: the median over its
// runs of each per-operation figure.
type Result struct {
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// Iters is the iteration count of each run.
	Iters int `json:"iters"`
	// Runs is how many times the row ran; 0 in reports that predate it.
	Runs int `json:"runs,omitempty"`
	// NsMin and NsMax are the fastest and slowest run's ns/op.
	NsMin float64 `json:"ns_min,omitempty"`
	NsMax float64 `json:"ns_max,omitempty"`
}

// Report is the file format of BENCH_<rev>.json.
type Report struct {
	// Rev identifies the commit the numbers belong to.
	Rev string `json:"rev"`
	// Host is the measuring machine; nil in reports that predate it.
	Host *benchsuite.Host `json:"host,omitempty"`
	// Quick marks reduced-iteration runs, which are not comparable.
	Quick bool `json:"quick,omitempty"`
	// Benchmarks maps scenario name to its measurement.
	Benchmarks map[string]Result `json:"benchmarks"`
	// Quality maps quality-metric name (δ, convergence slot) to value.
	Quality map[string]float64 `json:"quality"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	testing.Init()

	var (
		out     = flag.String("out", "", "output file (default BENCH_<rev>.json)")
		rev     = flag.String("rev", "", "revision label (default git describe --always --dirty)")
		quick   = flag.Bool("quick", false, "run one iteration per scenario (fast, not comparable)")
		only    = flag.String("scenario", "", "comma-separated scenario names to run (default all)")
		compare = flag.Bool("compare", false, "compare two report files: bench -compare base.json pr.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: bench -compare base.json pr.json")
		}
		base, err := readReport(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		pr, err := readReport(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		ok, err := compareReports(os.Stdout, base, pr)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	table, err := selectScenarios(benchsuite.Scenarios(), *only)
	if err != nil {
		log.Fatal(err)
	}
	if *rev == "" {
		*rev = gitRev("")
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", *rev)
	}

	host := benchsuite.StampHost()
	rep := Report{
		Rev:        *rev,
		Host:       &host,
		Quick:      *quick,
		Benchmarks: map[string]Result{},
		Quality:    map[string]float64{},
	}
	rounds := gatedRuns
	if *quick {
		rounds = 1
	}
	runs := map[string][]testing.BenchmarkResult{}
	for _, sc := range schedule(table, rounds) {
		iters := sc.Iters
		if *quick {
			iters = 1
		}
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", iters)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("running %-20s ... ", sc.Name)
		r := testing.Benchmark(sc.Bench)
		if r.N != iters {
			log.Fatalf("%s failed: ran %d of %d iterations", sc.Name, r.N, iters)
		}
		fmt.Println(r, r.MemString())
		runs[sc.Name] = append(runs[sc.Name], r)
	}
	for name, rs := range runs {
		rep.Benchmarks[name] = summarize(rs)
	}
	if *only == "" {
		if err := quality(rep.Quality, *quick); err != nil {
			log.Fatal(err)
		}
	}
	for _, k := range sortedKeys(rep.Quality) {
		fmt.Printf("quality %-20s %g\n", k, rep.Quality[k])
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// selectScenarios returns the rows a -scenario list names, all of them for
// an empty list; a name the table lacks is an error that lists the table.
func selectScenarios(table []benchsuite.Scenario, list string) ([]benchsuite.Scenario, error) {
	if list == "" {
		return table, nil
	}
	byName := map[string]benchsuite.Scenario{}
	for _, sc := range table {
		byName[sc.Name] = sc
	}
	var out []benchsuite.Scenario
	for _, name := range strings.Split(list, ",") {
		sc, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q; the table has %s", name, strings.Join(sortedKeys(byName), ", "))
		}
		out = append(out, sc)
	}
	return out, nil
}

// schedule returns the order a run measures the table in: every row once,
// then rounds−1 more rounds of the gated rows alone, in table order.
func schedule(table []benchsuite.Scenario, rounds int) []benchsuite.Scenario {
	order := slices.Clone(table)
	for i := 1; i < rounds; i++ {
		for _, sc := range table {
			if sc.Gated {
				order = append(order, sc)
			}
		}
	}
	return order
}

// summarize folds one row's runs into its report entry: the median of
// each per-operation figure (the upper middle for an even count), and the
// fastest and slowest ns/op.
func summarize(rs []testing.BenchmarkResult) Result {
	ns := make([]float64, len(rs))
	allocs := make([]int64, len(rs))
	bytes := make([]int64, len(rs))
	for i, r := range rs {
		ns[i], allocs[i], bytes[i] = float64(r.NsPerOp()), r.AllocsPerOp(), r.AllocedBytesPerOp()
	}
	slices.Sort(ns)
	slices.Sort(allocs)
	slices.Sort(bytes)
	mid := len(rs) / 2
	return Result{
		NsPerOp:     ns[mid],
		AllocsPerOp: allocs[mid],
		BytesPerOp:  bytes[mid],
		Iters:       rs[0].N,
		Runs:        len(rs),
		NsMin:       ns[0],
		NsMax:       ns[len(ns)-1],
	}
}

// quality records the reproduction-accuracy metrics: the deterministic
// FRA δ at k=100 and the OSTD run's final δ and convergence slot
// (-1 when the run does not converge).
func quality(out map[string]float64, quick bool) error {
	forest := field.NewForest(field.DefaultForestConfig())
	ref := forest.Reference()
	p, err := core.FRA(ref, core.FRAOptions{K: 100, Rc: 10, GridN: 100})
	if err != nil {
		return err
	}
	ev, err := core.Evaluate(ref, p, 10, 100)
	if err != nil {
		return err
	}
	out["fra_k100_delta"] = ev.Delta

	slots, deltaN := 45, 100
	if quick {
		slots, deltaN = 10, 50
	}
	w, err := engine.New(forest, field.GridLayout(forest.Bounds(), 100), engine.DefaultOptions())
	if err != nil {
		return err
	}
	rows, err := eval.DeltaVsTime(w, slots, deltaN)
	if err != nil {
		return err
	}
	out["ostd_final_delta"] = rows[len(rows)-1].Delta
	out["ostd_convergence_slot"] = -1
	if conv, ok := eval.ConvergenceTime(rows); ok {
		out["ostd_convergence_slot"] = conv
	}
	return nil
}

// gitRev labels a report with the commit checked out in dir (the working
// directory when empty), suffixed "-dirty" when tracked files differ from
// it, so numbers from uncommitted code never pass for the commit's; "dev"
// outside git.
func gitRev(dir string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=7")
	cmd.Dir = dir
	b, err := cmd.Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(b))
}

// readReport loads one BENCH_*.json.
func readReport(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports prints a row-by-row ratio table and reports whether
// every gated table row stayed within the tolerances. A row new in the PR
// passes; a gated row missing from it fails. Quick-mode reports and
// reports from different hosts are refused; a hostless one gets a warning.
func compareReports(w io.Writer, base, pr Report) (bool, error) {
	if base.Quick || pr.Quick {
		return false, errors.New("refusing to compare -quick reports")
	}
	switch {
	case base.Host == nil || pr.Host == nil:
		fmt.Fprintln(w, "warning: a report carries no host stamp; comparing without a host check")
	case *base.Host != *pr.Host:
		return false, fmt.Errorf("refusing to compare reports from different hosts:\n  base %+v\n  pr   %+v", *base.Host, *pr.Host)
	}
	ok := true
	fmt.Fprintf(w, "base %s vs pr %s (tolerance %.0f%% time, %.0f%% allocs)\n", base.Rev, pr.Rev, timeTol*100, allocTol*100)
	for _, sc := range benchsuite.Scenarios() {
		cur, inPR := pr.Benchmarks[sc.Name]
		old, inBase := base.Benchmarks[sc.Name]
		switch {
		case !inPR:
			if sc.Gated {
				fmt.Fprintf(w, "  %-20s missing from the pr report  REGRESSION\n", sc.Name)
				ok = false
			}
			continue
		case !inBase:
			fmt.Fprintf(w, "  %-20s %12.0f ns/op  (new)\n", sc.Name, cur.NsPerOp)
			continue
		}
		for _, m := range []struct {
			label         string
			old, cur, tol float64
		}{
			{"ns/op", old.NsPerOp, cur.NsPerOp, timeTol},
			{"allocs/op", float64(old.AllocsPerOp), float64(cur.AllocsPerOp), allocTol},
			{"bytes/op", float64(old.BytesPerOp), float64(cur.BytesPerOp), allocTol},
		} {
			if m.old <= 0 {
				continue // a zero base has no ratio
			}
			r := m.cur / m.old
			verdict := "ok"
			if r > 1+m.tol {
				verdict = "worse (ungated)"
				if sc.Gated {
					verdict = "REGRESSION"
					ok = false
				}
			}
			fmt.Fprintf(w, "  %-20s %12.0f -> %12.0f %-9s %+6.1f%%  %s\n",
				sc.Name, m.old, m.cur, m.label, (r-1)*100, verdict)
		}
	}
	for _, name := range sortedKeys(pr.Quality) {
		cur := pr.Quality[name]
		if old, seen := base.Quality[name]; seen && old != cur {
			fmt.Fprintf(w, "  quality %-20s %g -> %g\n", name, old, cur)
		}
	}
	if !ok {
		fmt.Fprintln(w, "FAIL: gated benchmark regressed beyond tolerance")
	}
	return ok, nil
}

// sortedKeys returns m's keys in sorted order for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
