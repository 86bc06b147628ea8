package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run the command's main with
// the arguments after "--" instead of the tests.
const runMainEnv = "SERVED_TEST_RUN_MAIN"

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

// TestBadNumericFlagsExit runs the daemon on negative sizes that
// serve.Config would read as the default and demands exit 1 with output
// naming the flag. Every run listens on an address with an invalid port,
// so none binds a port, even where a check is missing; -cache -1, the
// documented "disable", passes the checks and fails only at that listen.
func TestBadNumericFlagsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-max-inflight", "-1"}, "-max-inflight"},
		{[]string{"-queue-depth", "-1"}, "-queue-depth"},
		{[]string{"-max-jobs", "-1"}, "-max-jobs"},
		{[]string{"-sweep-workers", "-1"}, "-sweep-workers"},
		{[]string{"-cache", "-1"}, "listen"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		args := append([]string{"-test.run=^$", "--", "-quiet", "-addr", "127.0.0.1:-1"}, tc.args...)
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
	}
}
