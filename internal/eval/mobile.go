package eval

import (
	"fmt"
	"io"

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
// centralized strawman pays global reporting and transit lag. It needs
// k ≥ 3, the fewest nodes whose δ the CMA row can read.
func CompareMobile(dyn field.DynField, k, slots, deltaN int) ([]MobileRow, error) {
	if k < minDeltaAlive || slots < 1 || deltaN < 1 {
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
	// Row 0 is the state before the first slot; one hello broadcast per
	// node per slot.
	cma := mobileRow("cma", rows[1:], k*slots)

	// Centralized replanner.
	p, err := central.New(dyn, init, central.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("eval: central planner: %w", err)
	}
	rows = make([]DeltaVsTimeRow, 0, slots)
	for s := 0; s < slots; s++ {
		if err := p.Step(); err != nil {
			return nil, fmt.Errorf("eval: central step: %w", err)
		}
		d, err := p.Delta(deltaN)
		if err != nil {
			return nil, fmt.Errorf("eval: central delta: %w", err)
		}
		rows = append(rows, DeltaVsTimeRow{Delta: d, Connected: p.Connected()})
	}
	cen := mobileRow("central", rows, p.ReportsSent())

	return []MobileRow{cma, cen}, nil
}

// mobileRow folds one strategy's per-slot rows into its MobileRow.
func mobileRow(name string, rows []DeltaVsTimeRow, messages int) MobileRow {
	end, _, best, connected := summarize(rows)
	return MobileRow{Name: name, DeltaEnd: end, DeltaMin: best, ConnectedFrac: connected, Messages: messages}
}

// WriteMobileTable renders the strategy comparison as an aligned table.
func WriteMobileTable(w io.Writer, rows []MobileRow) error {
	return writeTable(w, "strategy\tδ_end\tδ_min\tconnected_frac\tmessages", rows, func(r MobileRow) string {
		return fmt.Sprintf("%s\t%.1f\t%.1f\t%.2f\t%d", r.Name, r.DeltaEnd, r.DeltaMin, r.ConnectedFrac, r.Messages)
	})
}
