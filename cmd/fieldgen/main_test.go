package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run the command's main with
// the arguments after "--" instead of the tests.
const runMainEnv = "FIELDGEN_TEST_RUN_MAIN"

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
// cannot honor and demands exit status 1 with output naming the flag.
func TestBadNumericFlagsExit(t *testing.T) {
	out := t.TempDir() + "/trace.csv"
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-grid", "-1"}, "-grid"},
		{[]string{"-grid", "0"}, "-grid"},
		{[]string{"-grid", "5000"}, "-grid"},
		{[]string{"-noise", "NaN"}, "-noise"},
		{[]string{"-noise", "-1"}, "-noise"},
		{[]string{"-noise", "+Inf"}, "-noise"},
		{[]string{"-gaps", "-1"}, "-gaps"},
		{[]string{"-gaps", "0"}, "-gaps"},
		{[]string{"-gaps", "100000000"}, "-gaps"},
		{[]string{"-times", "0,NaN"}, "-times"},
		{[]string{"-times", "0,3e307"}, "-times"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--", "-o", out}, tc.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		got, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1; output:\n%s", tc.args, err, got)
			continue
		}
		if !strings.Contains(string(got), tc.flag) {
			t.Errorf("%v: output does not name %s:\n%s", tc.args, tc.flag, got)
		}
	}
}

func TestParseTimes(t *testing.T) {
	got, err := parseTimes("0,15, 30")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 15, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	if _, err := parseTimes("1,b"); err == nil {
		t.Error("want error for bad float")
	}
}
