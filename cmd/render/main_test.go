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
const runMainEnv = "RENDER_TEST_RUN_MAIN"

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
// cannot honor, and on an unknown field, and demands exit status 1 with
// output naming the flag.
func TestBadNumericFlagsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-t", "NaN"}, "-t"},
		{[]string{"-t", "+Inf"}, "-t"},
		// 2π·t overflows past MaxFloat64/2π ≈ 2.86e307 minutes.
		{[]string{"-t", "2.9e307"}, "-t"},
		{[]string{"-t", "-2.9e307", "-format", "csv"}, "-t"},
		{[]string{"-grid", "-3"}, "-grid"},
		{[]string{"-grid", "0", "-format", "csv"}, "-grid"},
		{[]string{"-grid", "5000", "-format", "csv"}, "-grid"},
		{[]string{"-cols", "1"}, "-cols"},
		{[]string{"-cols", "-4"}, "-cols"},
		{[]string{"-rows", "0", "-format", "pgm"}, "-rows"},
		{[]string{"-cols", "5000"}, "-cols"},
		{[]string{"-rows", "1025", "-format", "pgm"}, "-rows"},
		// A grid this size cannot even be allocated: it must be refused
		// by the budget, not by a failing make.
		{[]string{"-cols", "2147483648", "-rows", "2147483648"}, "-cols"},
		{[]string{"-field", "nope"}, "-field"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, tc.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1; output:\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.flag) {
			t.Errorf("%v: output does not name %s:\n%s", tc.args, tc.flag, out)
		}
	}
}
