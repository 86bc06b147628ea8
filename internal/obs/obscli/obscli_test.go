package obscli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// mainEnv, when set, makes the test binary run a tiny command through
// Main with the arguments after "--" instead of the tests: "check" fails
// its flag check, "body" fails its body, anything else succeeds.
const mainEnv = "OBSCLI_TEST_MAIN"

func TestMain(m *testing.M) {
	if mode := os.Getenv(mainEnv); mode != "" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append(os.Args[:1], os.Args[i+1:]...)
				break
			}
		}
		Main("tiny", func() error {
			if mode == "check" {
				return errors.New("bad -x 0: must be at least 1")
			}
			return nil
		}, func(reg *obs.Registry) error {
			reg.Counter("tiny_runs_total").Inc()
			if mode == "body" {
				return errors.New("body failed")
			}
			return nil
		})
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMainEdge pins the exit contract of Main: a failing check exits 1
// before Start and writes no export, a failing body exits 1 after the
// exports are written, an export that cannot be written exits 1, and a
// flag error exits 2.
func TestMainEdge(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		mode, export string
		code         int
		stderr       string
		written      bool
	}{
		{"ok", "ok.json", 0, "", true},
		{"check", "check.json", 1, "tiny: bad -x 0: must be at least 1\n", false},
		{"body", "body.json", 1, "tiny: body failed\n", true},
		{"ok", "missing/close.json", 1, "tiny: open ", false},
	} {
		export := filepath.Join(dir, tc.export)
		code, stderr := runTiny(t, tc.mode, "-metrics-json", export)
		if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d, stderr starting %q", tc.mode, code, stderr, tc.code, tc.stderr)
		}
		data, err := os.ReadFile(export)
		if !tc.written {
			if err == nil {
				t.Errorf("%s: %s written on a refused run", tc.mode, tc.export)
			}
			continue
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil || snap.Counters["tiny_runs_total"] != 1 {
			t.Errorf("%s: export %s = %s (%v), want tiny_runs_total 1", tc.mode, tc.export, data, err)
		}
	}
	if code, _ := runTiny(t, "ok", "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// runTiny runs the tiny command in a child process and returns its exit
// status and standard error.
func runTiny(t *testing.T, mode string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), mainEnv+"="+mode)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", mode, args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// newRun builds a Run with flags parsed from args against a fresh set.
func newRun(t *testing.T, reg *obs.Registry, args ...string) *Run {
	t.Helper()
	r := New(reg)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	r.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMetricsExports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "m.json")
	promPath := filepath.Join(dir, "m.prom")
	reg := obs.NewRegistry()
	reg.Counter("widgets_total").Add(7)

	r := newRun(t, reg, "-metrics-json", jsonPath, "-metrics-prom", promPath)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if snap.Counters["widgets_total"] != 7 {
		t.Errorf("exported counter = %d, want 7", snap.Counters["widgets_total"])
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "widgets_total 7") {
		t.Errorf("prometheus export missing counter:\n%s", prom)
	}
}

func TestProfilesClosedOnClose(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	r := newRun(t, nil, "-cpuprofile", cpu, "-memprofile", mem)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must be idempotent.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartErrorReleasesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	// An unbindable pprof address must fail Start and still release the
	// already-started CPU profile, or a second Start could never succeed.
	r := newRun(t, nil, "-cpuprofile", cpu, "-pprof", "256.256.256.256:1")
	if err := r.Start(); err == nil {
		t.Fatal("Start with a bad pprof address must fail")
	}
	r2 := newRun(t, nil, "-cpuprofile", filepath.Join(dir, "cpu2.out"))
	if err := r2.Start(); err != nil {
		t.Fatalf("CPU profile leaked by failed Start: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPprofServerServesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("answer").Set(42)
	r := newRun(t, reg, "-pprof", "127.0.0.1:0")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	base := fmt.Sprintf("http://%s", r.listener.Addr())
	for path, want := range map[string]string{
		"/metrics":            "answer 42",
		"/debug/pprof/symbol": "", // pprof handler mounted
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body), want) {
			t.Errorf("%s: body %q missing %q", path, body, want)
		}
	}
}

func TestReportShape(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("done").Inc()
	r := newRun(t, reg)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	rep := r.buildReport()
	if rep.ElapsedSeconds < 0 {
		t.Errorf("elapsed = %v", rep.ElapsedSeconds)
	}
	if rep.Metrics.Counters["done"] != 1 {
		t.Errorf("report metrics = %+v", rep.Metrics)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not marshalable: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
