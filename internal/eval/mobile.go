package eval

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/central"
	"repro/internal/engine"
	"repro/internal/field"
)

// MobileRow compares one mobile-control strategy over a run.
type MobileRow struct {
	// Name identifies the strategy.
	Name string
	// DeltaEnd is δ at the end of the run.
	DeltaEnd float64
	// DeltaMin is the best δ reached during the run.
	DeltaMin float64
	// ConnectedFrac is the fraction of slots with a connected network.
	ConnectedFrac float64
	// Messages is the communication bill: per-slot single-hop hello
	// broadcasts for CMA, full uplink reports for the centralized
	// replanner. The units differ in kind (one-hop versus multi-hop), so
	// the column understates the centralized cost if anything.
	Messages int
}

// CompareMobile runs the distributed CMA and the centralized replanner
// from the same initial grid over the same dynamic field and reports the
// paper's qualitative claim as numbers: the local controller holds
// connectivity every slot with one-hop traffic only, while the
// centralized strawman pays global reporting and transit lag.
func CompareMobile(dyn field.DynField, k, slots, deltaN int) ([]MobileRow, error) {
	if k < 1 || slots < 1 || deltaN < 1 {
		return nil, fmt.Errorf("%w: k=%d slots=%d deltaN=%d", ErrBadParams, k, slots, deltaN)
	}
	init := field.GridLayout(dyn.Bounds(), k)

	// CMA.
	w, err := engine.New(dyn, init, engine.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("eval: cma world: %w", err)
	}
	rows, err := DeltaVsTime(w, slots, deltaN)
	if err != nil {
		return nil, fmt.Errorf("eval: cma: %w", err)
	}
	// One hello broadcast per node per slot.
	cma := MobileRow{Name: "cma", DeltaMin: math.Inf(1), Messages: k * slots}
	connected := 0
	for _, r := range rows[1:] { // row 0 is the state before the first slot
		cma.DeltaEnd = r.Delta
		cma.DeltaMin = math.Min(cma.DeltaMin, r.Delta)
		if r.Connected {
			connected++
		}
	}
	cma.ConnectedFrac = float64(connected) / float64(slots)

	// Centralized replanner.
	opts := central.DefaultOptions()
	p, err := central.New(dyn, init, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: central planner: %w", err)
	}
	cen := MobileRow{Name: "central", DeltaMin: math.Inf(1)}
	connected = 0
	for s := 0; s < slots; s++ {
		if err := p.Step(); err != nil {
			return nil, fmt.Errorf("eval: central step: %w", err)
		}
		d, err := p.Delta(deltaN)
		if err != nil {
			return nil, fmt.Errorf("eval: central delta: %w", err)
		}
		cen.DeltaEnd = d
		cen.DeltaMin = math.Min(cen.DeltaMin, d)
		if p.Connected() {
			connected++
		}
	}
	cen.ConnectedFrac = float64(connected) / float64(slots)
	cen.Messages = p.ReportsSent()

	return []MobileRow{cma, cen}, nil
}

// WriteMobileTable renders the strategy comparison as an aligned table.
func WriteMobileTable(w io.Writer, rows []MobileRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tδ_end\tδ_min\tconnected_frac\tmessages")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.2f\t%d\n",
			r.Name, r.DeltaEnd, r.DeltaMin, r.ConnectedFrac, r.Messages)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}
