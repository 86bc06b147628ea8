package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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
