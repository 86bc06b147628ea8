package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run the command's main with
// the arguments after "--" instead of the tests.
const runMainEnv = "NETPLAN_TEST_RUN_MAIN"

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

// runMain runs the command with args in a child process and returns its
// combined output and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return string(out), 0
}

// TestBadRcExits runs the command on radii that are not positive and
// finite, for positions from a file and for an FRA placement, and demands
// exit status 1 with a message that names the radius.
func TestBadRcExits(t *testing.T) {
	pos := filepath.Join(t.TempDir(), "nodes.csv")
	if err := os.WriteFile(pos, []byte("x,y\n0,0\n50,50\n90,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range [][]string{{"-pos", pos}, {"-fra", "20", "-grid", "10"}} {
		for _, rc := range []string{"NaN", "+Inf", "-Inf", "0", "-3"} {
			out, code := runMain(t, append(src, "-rc", rc)...)
			if code != 1 {
				t.Errorf("%v -rc %s: exit %d, want 1; output:\n%s", src, rc, code, out)
			}
			if !strings.Contains(out, "rc=") {
				t.Errorf("%v -rc %s: output does not name the radius:\n%s", src, rc, out)
			}
		}
	}
	// A finite positive radius still reports the relays.
	out, code := runMain(t, "-pos", pos, "-rc", "10")
	if code != 0 || !strings.Contains(out, "relays needed to connect: 12") {
		t.Errorf("-rc 10: exit %d, output:\n%s", code, out)
	}
}

// TestBadNumericFlagsExit runs the command on FRA flags it cannot honor
// and demands exit status 1 with a message that names the flag: a
// negative node count, lattice sizes below 1, and sizes past the work
// budget, which must be refused before the lattice is allocated.
func TestBadNumericFlagsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-fra", "-1"}, "-fra"},
		{[]string{"-fra", "5", "-grid", "0"}, "-grid"},
		{[]string{"-fra", "5", "-grid", "-3"}, "-grid"},
		{[]string{"-fra", "5", "-grid", "100000"}, "-grid"},
		{[]string{"-fra", "1000000000", "-grid", "50"}, "-fra"},
	} {
		out, code := runMain(t, tc.args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1; output:\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.flag) {
			t.Errorf("%v: output does not name %s:\n%s", tc.args, tc.flag, out)
		}
	}
}

func TestReadPositions(t *testing.T) {
	got, err := readPositions(strings.NewReader("x,y\n1,2\n3.5,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].X != 1 || got[1].Y != 4 {
		t.Errorf("positions = %v", got)
	}
	// No header also works.
	got, err = readPositions(strings.NewReader("1,2\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("headerless = %v, %v", got, err)
	}
	// Bad coordinates after the first row are an error.
	if _, err := readPositions(strings.NewReader("1,2\nx,y\n")); err == nil {
		t.Error("want error for bad row")
	}
	// Short rows are an error.
	if _, err := readPositions(strings.NewReader("1\n")); err == nil {
		t.Error("want error for short row")
	}
}
