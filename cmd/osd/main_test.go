package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run the command's main with
// the arguments after "--" instead of the tests.
const runMainEnv = "OSD_TEST_RUN_MAIN"

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
// cannot honor and demands a non-zero exit whose output names the flag:
// radii that are not positive and finite, for FRA and for a registry
// strategy, and lattice sizes and draw counts out of range, in single
// and sweep mode.
func TestBadNumericFlagsExit(t *testing.T) {
	type badCase struct {
		args []string
		flag string
	}
	var cases []badCase
	for _, strat := range []string{"fra", "lloyd"} {
		for _, rc := range []string{"NaN", "+Inf", "-Inf", "0", "-3"} {
			cases = append(cases, badCase{[]string{"-k", "40", "-grid", "20", "-rc", rc, "-strategy", strat}, "rc="})
		}
	}
	cases = append(cases,
		badCase{[]string{"-grid", "0"}, "-grid"},
		badCase{[]string{"-grid", "-1"}, "-grid"},
		badCase{[]string{"-delta-grid", "0"}, "-delta-grid"},
		badCase{[]string{"-delta-grid", "-1"}, "-delta-grid"},
		badCase{[]string{"-delta-grid", "5000"}, "-delta-grid"},
		badCase{[]string{"-draws", "-1", "-sweep", "1:5:2"}, "-draws"},
		badCase{[]string{"-draws", "0", "-sweep", "1:5:2"}, "-draws"},
		badCase{[]string{"-delta-grid", "0", "-sweep", "1:5:2"}, "-delta-grid"},
	)
	for _, tc := range cases {
		args := append([]string{"-test.run=^$", "--", "-quiet"}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
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

// TestSweepCSVPinned runs the Fig. 7 sweep front door on a small grid
// and pins its CSV byte for byte: the column names, the row order and
// every δ digit.
func TestSweepCSVPinned(t *testing.T) {
	const want = `k,delta_fra,delta_random,refined,relays,connected
10,23451.36327993721,24569.269364099728,4,6,true
40,16178.567836158752,16321.886915340072,25,15,true
`
	cmd := exec.Command(os.Args[0], "-test.run=^$", "--",
		"-sweep", "10:40:30", "-grid", "20", "-delta-grid", "20", "-draws", "2", "-csv")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("osd -sweep: %v", err)
	}
	if string(out) != want {
		t.Errorf("osd -sweep -csv printed\n%s\nwant\n%s", out, want)
	}
}

func TestParseSweep(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"1:10:3", []int{1, 4, 7, 10}, false},
		{"5:5:1", []int{5}, false},
		{"1:200:50", []int{1, 51, 101, 151}, false},
		{"10:1:1", nil, true},
		{"0:5:1", nil, true},
		{"1:5:0", nil, true},
		{"1:5", nil, true},
		{"a:5:1", nil, true},
		{"", nil, true},
	}
	for _, tc := range tests {
		got, err := parseSweep(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}
