package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/field"
	"repro/internal/strategy"
)

// runMainEnv, when set, makes the test binary run the command's main with
// the arguments after "--" instead of the tests.
const runMainEnv = "OSTD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append(os.Args[:1], os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadNumericFlagsExit runs the command on numeric flag values it
// cannot honor and demands a non-zero exit whose output names the flag.
// Every case is refused before the field or the swarm is built.
func TestBadNumericFlagsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-k", "25", "-slots", "-1"}, "-slots"},
		{[]string{"-k", "0"}, "-k"},
		{[]string{"-k", "-3"}, "-k"},
		{[]string{"-beta", "-1"}, "-beta"},
		{[]string{"-beta", "NaN"}, "-beta"},
		{[]string{"-beta", "+Inf"}, "-beta"},
		{[]string{"-delta-grid", "-5"}, "-delta-grid"},
		{[]string{"-delta-grid", "0"}, "-delta-grid"},
		{[]string{"-delta-grid", "5000"}, "-delta-grid"},
		{[]string{"-noise", "NaN"}, "-noise"},
		{[]string{"-noise", "-1"}, "-noise"},
		{[]string{"-noise", "+Inf"}, "-noise"},
		{[]string{"-fault-rate", "NaN"}, "-fault-rate"},
		{[]string{"-fault-rate", "7"}, "-fault-rate"},
		{[]string{"-fault-rate", "-0.1"}, "-fault-rate"},
		{[]string{"-fault-sweep", "0,NaN"}, "-fault-sweep"},
		{[]string{"-fault-sweep", "0,1"}, "-fault-sweep"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, tc.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("%v: err = %v, want a non-zero exit; output:\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.flag) {
			t.Errorf("%v: output does not name %s:\n%s", tc.args, tc.flag, out)
		}
	}
}

// runMain re-executes the command with args and returns its output,
// failing the test on a non-zero exit.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %v; output:\n%s", args, err, out)
	}
	return string(out)
}

// TestFaultSweepHonorsRunFlags: every rate of -fault-sweep runs with the
// same options as the single run, so -beta, -noise and -seed change the
// degradation table.
func TestFaultSweepHonorsRunFlags(t *testing.T) {
	sweep := []string{"-k", "100", "-slots", "3", "-delta-grid", "20", "-fault-sweep", "0,0.1"}
	def := runMain(t, sweep...)
	if again := runMain(t, sweep...); again != def {
		t.Fatalf("same flags, different tables:\n%s\nvs\n%s", def, again)
	}
	noisy := runMain(t, append(sweep, "-noise", "2")...)
	for _, extra := range [][]string{{"-beta", "7"}, {"-noise", "2"}} {
		if out := runMain(t, append(sweep, extra...)...); out == def {
			t.Errorf("%v does not change the degradation table:\n%s", extra, out)
		}
	}
	if out := runMain(t, append(sweep, "-noise", "2", "-seed", "9")...); out == noisy {
		t.Errorf("-seed does not change the noisy degradation table:\n%s", out)
	}
}

// singleRunRows is eval.DeltaVsTime for the command's single run at its
// default flags but k, slots and deltaN.
func singleRunRows(t *testing.T, k, slots, deltaN int) []eval.DeltaVsTimeRow {
	t.Helper()
	forest := field.NewForest(field.DefaultForestConfig())
	opts := engine.DefaultOptions()
	opts.Config.Beta = 2
	opts.Seed = 1
	opts.NewController = strategy.MovementFor("cma").NewController
	w, err := engine.New(forest, field.GridLayout(forest.Bounds(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eval.DeltaVsTime(w, slots, deltaN)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func deltaVsTimeTable(t *testing.T, rows []eval.DeltaVsTimeRow) string {
	t.Helper()
	var b strings.Builder
	if err := eval.WriteDeltaVsTimeTable(&b, rows); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSingleRunPrintsSnapsThenTable: the single run renders each -snap
// minute in time order and then prints exactly the Fig. 10 table of
// eval.DeltaVsTime on the same inputs; -slots 0 prints the t = 0 row
// alone.
func TestSingleRunPrintsSnapsThenTable(t *testing.T) {
	rows := singleRunRows(t, 25, 3, 20)
	out := runMain(t, "-k", "25", "-slots", "3", "-delta-grid", "20", "-snap", "0,2")
	snap0 := strings.Index(out, "topology at t=0 min")
	snap2 := strings.Index(out, "topology at t=2 min")
	table := deltaVsTimeTable(t, rows)
	if at := strings.Index(out, table); snap0 < 0 || snap2 < snap0 || at < snap2 {
		t.Fatalf("want the t=0 and t=2 snapshots, then the table\n%s\noutput:\n%s", table, out)
	}
	if n := strings.Count(out, "topology at"); n != 2 {
		t.Errorf("%d snapshots, want 2:\n%s", n, out)
	}

	out = runMain(t, "-k", "25", "-slots", "0", "-delta-grid", "20")
	if table := deltaVsTimeTable(t, rows[:1]); !strings.HasPrefix(out, table) {
		t.Fatalf("-slots 0 output\n%s\nwant it to start with the t = 0 row alone\n%s", out, table)
	}
}

func TestParseSnaps(t *testing.T) {
	got, err := parseSnaps("")
	if err != nil || len(got) != 0 {
		t.Errorf("empty: %v, %v", got, err)
	}
	got, err = parseSnaps("0, 25,45")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []float64{0, 25, 45} {
		if !got[want] {
			t.Errorf("missing %v in %v", want, got)
		}
	}
	if _, err := parseSnaps("0,x"); err == nil {
		t.Error("want error for bad float")
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("0, 0.1,0.3")
	if err != nil || len(got) != 3 || got[1] != 0.1 {
		t.Errorf("parseRates: %v, %v", got, err)
	}
	if _, err := parseRates("0,x"); err == nil {
		t.Error("want error for bad float")
	}
	for _, bad := range []string{"1.5", "1", "-0.1", "NaN"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("%s: want error for out-of-range rate", bad)
		}
	}
}
