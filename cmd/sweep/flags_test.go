package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run the command's main with
// the arguments after "--" instead of the tests.
const runMainEnv = "SWEEP_TEST_RUN_MAIN"

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

// TestBadNumericFlagsExit runs the command on negative values the sweep
// and dsweep options would read as the default and demands exit 1 with
// output naming the flag. No run names a spec, so none starts a worker,
// even where a check is missing; -workers 0, the default, passes the
// checks and fails only at the missing -spec. A refused command line
// writes no metrics export.
func TestBadNumericFlagsExit(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-limit", "-1"}, "-limit"},
		{[]string{"-lease-ttl", "-1s"}, "-lease-ttl"},
		{[]string{"-workers", "0"}, "-spec"},
		{[]string{"-metrics-json", metrics}, "-spec"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		args := append([]string{"-test.run=^$", "--", "-quiet"}, tc.args...)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit 1; output:\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: output does not name %s:\n%s", tc.args, tc.want, out)
		}
		if _, err := os.Stat(metrics); !os.IsNotExist(err) {
			t.Errorf("%v: a refused run wrote %s (stat: %v)", tc.args, metrics, err)
		}
	}
}
