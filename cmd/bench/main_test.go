package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchsuite"
)

var testHost = benchsuite.Host{NumCPU: 2, GOMAXPROCS: 2, GOARCH: "amd64", CPUModel: "Test CPU", GoVersion: "go1.22.0"}

// fullReport returns a report with every table row at the same baseline
// figures, measured on host (nil: a report written before host stamps).
func fullReport(host *benchsuite.Host) Report {
	rep := Report{Rev: "r", Host: host, Benchmarks: map[string]Result{}}
	for _, sc := range benchsuite.Scenarios() {
		rep.Benchmarks[sc.Name] = Result{NsPerOp: 1e6, AllocsPerOp: 1000, BytesPerOp: 1e5, Iters: sc.Iters}
	}
	return rep
}

func TestCompareHosts(t *testing.T) {
	other := testHost
	other.CPUModel = "Other CPU"
	quick := fullReport(&testHost)
	quick.Quick = true
	for _, tc := range []struct {
		name     string
		base, pr Report
		wantErr  bool
		wantOut  string
	}{
		{"same host", fullReport(&testHost), fullReport(&testHost), false, ""},
		{"other cpu model", fullReport(&other), fullReport(&testHost), true, ""},
		{"hostless base", fullReport(nil), fullReport(&testHost), false, "warning: a report carries no host stamp"},
		{"quick report", fullReport(&testHost), quick, true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			ok, err := compareReports(&out, tc.base, tc.pr)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("compared without error:\n%s", out.String())
				}
				return
			}
			if err != nil || !ok {
				t.Fatalf("ok=%v err=%v:\n%s", ok, err, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

func TestCompareGate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(pr, base *Report)
		wantOK bool
	}{
		{"unchanged", func(pr, base *Report) {}, true},
		{"gated time +16%", func(pr, base *Report) { scale(pr, "fra_k500", 1.16, 1) }, false},
		{"gated time +14%", func(pr, base *Report) { scale(pr, "step_large_n", 1.14, 1) }, true},
		{"gated allocs +11%", func(pr, base *Report) { scale(pr, "plume_round", 1, 1.11) }, false},
		{"ungated time +50%", func(pr, base *Report) { scale(pr, "fra_k100", 1.5, 1.5) }, true},
		{"gated row missing from pr", func(pr, base *Report) { delete(pr.Benchmarks, "lloyd_k500") }, false},
		{"gated row new in pr", func(pr, base *Report) { delete(base.Benchmarks, "lloyd_k500") }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, pr := fullReport(&testHost), fullReport(&testHost)
			tc.edit(&pr, &base)
			var out strings.Builder
			ok, err := compareReports(&out, base, pr)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.wantOK {
				t.Errorf("ok = %v, want %v:\n%s", ok, tc.wantOK, out.String())
			}
		})
	}
}

// scale multiplies one row's ns/op by dt and its allocs/op by da.
func scale(rep *Report, name string, dt, da float64) {
	r := rep.Benchmarks[name]
	r.NsPerOp *= dt
	r.AllocsPerOp = int64(float64(r.AllocsPerOp) * da)
	rep.Benchmarks[name] = r
}

// TestSummarizeMedian checks a row's report entry is the median run's
// figures, with the fastest and slowest ns/op beside them, whatever order
// the runs came in.
func TestSummarizeMedian(t *testing.T) {
	run := func(ms int, allocs, bytes uint64) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: 10, T: time.Duration(10*ms) * time.Millisecond, MemAllocs: 10 * allocs, MemBytes: 10 * bytes}
	}
	got := summarize([]testing.BenchmarkResult{run(9, 6, 700), run(4, 5, 600), run(6, 7, 650)})
	want := Result{NsPerOp: 6e6, AllocsPerOp: 6, BytesPerOp: 650, Iters: 10, Runs: 3, NsMin: 4e6, NsMax: 9e6}
	if got != want {
		t.Errorf("three runs: %+v, want %+v", got, want)
	}
	got = summarize([]testing.BenchmarkResult{run(5, 2, 100)})
	want = Result{NsPerOp: 5e6, AllocsPerOp: 2, BytesPerOp: 100, Iters: 10, Runs: 1, NsMin: 5e6, NsMax: 5e6}
	if got != want {
		t.Errorf("one run: %+v, want %+v", got, want)
	}
}

// TestSchedule checks a full run measures every row once and each gated
// row gatedRuns times, the extra runs in rounds of the gated rows in
// table order, and that a quick run measures every row once.
func TestSchedule(t *testing.T) {
	table := benchsuite.Scenarios()
	var gated []string
	for _, sc := range table {
		if sc.Gated {
			gated = append(gated, sc.Name)
		}
	}
	names := func(order []benchsuite.Scenario) []string {
		out := make([]string, len(order))
		for i, sc := range order {
			out[i] = sc.Name
		}
		return out
	}
	full := names(schedule(table, gatedRuns))
	if len(full) != len(table)+(gatedRuns-1)*len(gated) {
		t.Fatalf("full run measures %d rows, want %d", len(full), len(table)+(gatedRuns-1)*len(gated))
	}
	if !slices.Equal(full[:len(table)], names(table)) {
		t.Errorf("first round %v, want the table %v", full[:len(table)], names(table))
	}
	for r := 1; r < gatedRuns; r++ {
		lo := len(table) + (r-1)*len(gated)
		if got := full[lo : lo+len(gated)]; !slices.Equal(got, gated) {
			t.Errorf("round %d %v, want the gated rows %v", r+1, got, gated)
		}
	}
	if quick := names(schedule(table, 1)); !slices.Equal(quick, names(table)) {
		t.Errorf("quick run %v, want the table once", quick)
	}
}

// TestGitRevDirty checks the report label is the commit's hash on a clean
// tree, the hash suffixed "-dirty" once a tracked file changes, and "dev"
// outside git.
func TestGitRevDirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	t.Setenv("GIT_CEILING_DIRECTORIES", filepath.Dir(dir))
	if got := gitRev(dir); got != "dev" {
		t.Errorf("outside git: label %q, want dev", got)
	}
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=bench", "-c", "user.email=bench@example.com"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	file := filepath.Join(dir, "a.txt")
	if err := os.WriteFile(file, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "a.txt")
	git("commit", "-q", "-m", "a")
	hash := git("rev-parse", "--short=7", "HEAD")
	if got := gitRev(dir); got != hash {
		t.Errorf("clean tree: label %q, want %q", got, hash)
	}
	if err := os.WriteFile(file, []byte("b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := gitRev(dir); got != hash+"-dirty" {
		t.Errorf("edited tree: label %q, want %q", got, hash+"-dirty")
	}
}

func TestSelectScenarios(t *testing.T) {
	table := benchsuite.Scenarios()
	got, err := selectScenarios(table, "step_100k, fra_k100")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "step_100k" || got[1].Name != "fra_k100" {
		t.Errorf("selected %d rows, want step_100k and fra_k100", len(got))
	}
	if all, err := selectScenarios(table, ""); err != nil || len(all) != len(table) {
		t.Errorf("empty list selected %d rows (err %v), want the whole table", len(all), err)
	}
	for _, list := range []string{"step_100k,typo", "typo", ","} {
		if _, err := selectScenarios(table, list); err == nil || !strings.Contains(err.Error(), "plume_round") {
			t.Errorf("-scenario %q: err = %v, want a refusal listing the table", list, err)
		}
	}
}

// TestReadmeTableMatchesReport keeps the README's cmd/bench figures equal
// to the committed BENCH_reference.json: the host line, and for every
// table row its iteration count, gate, ms/op and allocs/op.
func TestReadmeTableMatchesReport(t *testing.T) {
	ref, err := readReport("../../BENCH_reference.json")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Host == nil || ref.Quick {
		t.Fatal("BENCH_reference.json must be a full, host-stamped run")
	}
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	h := ref.Host
	wantHost := fmt.Sprintf("Host: %s, %d CPUs, GOMAXPROCS %d, %s, %s (`BENCH_reference.json`, rev %s).",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GOARCH, h.GoVersion, ref.Rev)
	hostSeen := false
	rows := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Host: ") {
			hostSeen = true
			if line != wantHost {
				t.Errorf("README host line\n  %s\nwant\n  %s", line, wantHost)
			}
			continue
		}
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		name := strings.Trim(cells[0], "`")
		res, ok := ref.Benchmarks[name]
		if !ok {
			continue // a backticked table elsewhere in the README
		}
		rows[name] = true
		if len(cells) != 6 {
			t.Errorf("README row %q has %d cells, want 6", name, len(cells))
			continue
		}
		want := []string{strconv.Itoa(res.Iters), gatedMark(name), fmt.Sprintf("%.1f", res.NsPerOp/1e6), strconv.FormatInt(res.AllocsPerOp, 10)}
		if got := cells[2:]; strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("README row %s: iters|gated|ms/op|allocs/op = %s, report says %s",
				name, strings.Join(got, "|"), strings.Join(want, "|"))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !hostSeen {
		t.Errorf("README has no line %q", wantHost)
	}
	for name := range ref.Benchmarks {
		if !rows[name] {
			t.Errorf("README lacks a row for %s", name)
		}
	}
	for _, s := range benchsuite.Scenarios() {
		if _, ok := ref.Benchmarks[s.Name]; !ok {
			t.Errorf("BENCH_reference.json lacks table row %s", s.Name)
		}
	}
}

// gatedMark is the README's gated column for a table row.
func gatedMark(name string) string {
	for _, sc := range benchsuite.Scenarios() {
		if sc.Name == name && sc.Gated {
			return "yes"
		}
	}
	return ""
}
