package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain compares two result records written by runs of the same
// workload and trace mode. It refuses records from different machines:
// a number only counts against another measured on the same host.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare <old result.json> <new result.json>")
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := recs[0], recs[1]
	if !a.Host.sameMachine(b.Host) {
		return fmt.Errorf("refusing to compare results from different hosts:\n  old %+v\n  new %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "%s trace=%v: old rev %s seed %d, new rev %s seed %d\n",
		a.Workload, a.Trace, a.Host.GitRev, a.Host.Seed, b.Host.GitRev, b.Host.Seed)
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		old, nu := a.Result.Metrics[k], b.Result.Metrics[k]
		fmt.Fprintf(w, "%-30s %14.6g -> %14.6g %s (%+.1f%%)\n", k, old.Value, nu.Value, old.Unit,
			100*ratio(nu.Value-old.Value, old.Value))
	}
	return nil
}
