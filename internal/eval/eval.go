// Package eval is the experiment harness: it regenerates the data series
// behind the paper's evaluation (Section 6) — δ versus time for CMA
// (Fig. 10), the uniform-versus-CWD comparison (Fig. 3) and the per-run
// surface snapshots (Figs. 5, 6, 8, 9) — and formats them as text tables
// and CSV. The δ-versus-k series of Fig. 7, FRA against random
// deployment, is a scenario sweep (internal/sweep) formatted here.
package eval

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/view"
)

// ErrBadParams is returned for invalid sweep parameters.
var ErrBadParams = errors.New("eval: invalid parameters")

// DeltaVsKRow is one point of the Fig. 7 series. The sweep engine
// computes it (sweep.DeltaVsKRows); this package formats it.
type DeltaVsKRow struct {
	// K is the node count.
	K int
	// Delta is δ for the placement strategy under test (FRA in the paper).
	Delta float64
	// Random is δ for random deployment, averaged over the random draws.
	Random float64
	// Refined and Relays break down the placement (strategy-specific
	// bookkeeping: FRA's refinement moves and relay insertions, Lloyd's
	// relaxation rounds).
	Refined, Relays int
	// Connected reports whether the placement is connected at Rc.
	Connected bool
}

// DeltaVsTimeRow is one point of the Fig. 10 series, and the record the
// swarm loop reads from the engine after every slot.
type DeltaVsTimeRow struct {
	// T is the time in minutes from scenario start.
	T float64
	// Delta is δ at T, reconstructed from the alive nodes. It is NaN when
	// fewer than 3 nodes are alive: there is no Delaunay reconstruction
	// then, and the tables and the CSV leave it blank.
	Delta float64
	// Moved is the number of CMA movers in the slot ending at T.
	Moved int
	// MeanDisplacement is the slot's mean node displacement.
	MeanDisplacement float64
	// Connected reports network connectivity at T.
	Connected bool
	// Alive is the number of nodes alive at T.
	Alive int
	// Positions are the node positions at T. The tables and the CSV do
	// not print them.
	Positions []geom.Vec2
}

// minDeltaAlive is the fewest alive nodes a slot's δ is computed from:
// the three points Eqn 2's Delaunay reconstruction needs.
const minDeltaAlive = 3

// DeltaVsTime steps the engine for the given number of slots, measuring δ
// each slot that has at least 3 nodes alive — the data series of Fig. 10.
// The first row records the state before the first step, so slots = 0
// returns it alone.
func DeltaVsTime(w *engine.Engine, slots, deltaN int) ([]DeltaVsTimeRow, error) {
	if slots < 0 || deltaN < 1 {
		return nil, fmt.Errorf("%w: slots=%d deltaN=%d", ErrBadParams, slots, deltaN)
	}
	rows, err := runSlots(w, 0, slots, deltaN, nil)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return rows, nil
}

// runSlots is the one loop that steps a swarm. It records one row per
// slot s from first (0 or 1) to last: row 0 is the engine's state before
// the loop steps it, row s the state after step s. Each row reads δ while
// at least minDeltaAlive nodes are alive, then connectivity and a copy of
// the positions, and goes to each, when non-nil, before the next step.
func runSlots(w *engine.Engine, first, last, deltaN int, each func(DeltaVsTimeRow)) ([]DeltaVsTimeRow, error) {
	rows := make([]DeltaVsTimeRow, 0, last-first+1)
	for s := first; s <= last; s++ {
		st := engine.StepStats{T: w.Time()}
		var err error
		if s == 0 {
			st.Alive = view.Alive{Mask: w.AliveMask()}.Count()
		} else if st, err = w.Step(); err != nil {
			return nil, fmt.Errorf("slot %d: %w", s-1, err)
		}
		r := DeltaVsTimeRow{T: st.T, Delta: math.NaN(), Moved: st.Moved,
			MeanDisplacement: st.MeanDisplacement, Alive: st.Alive}
		if r.Alive >= minDeltaAlive {
			if r.Delta, err = w.Delta(deltaN); err != nil {
				return nil, fmt.Errorf("δ at t=%g: %w", st.T, err)
			}
		}
		r.Connected = w.Connected()
		r.Positions = w.Positions()
		rows = append(rows, r)
		if each != nil {
			each(r)
		}
	}
	return rows, nil
}

// summarize folds a run's per-slot rows, in slot order, into the figures
// every run record reports. The δ figures cover only the rows with a δ:
// end and mean stay 0 and best +Inf when none has one.
func summarize(rows []DeltaVsTimeRow) (end, mean, best, connectedFrac float64) {
	best = math.Inf(1)
	withDelta, connected := 0, 0
	for _, r := range rows {
		if r.Connected {
			connected++
		}
		if !math.IsNaN(r.Delta) {
			end, mean, best = r.Delta, mean+r.Delta, math.Min(best, r.Delta)
			withDelta++
		}
	}
	if withDelta > 0 {
		mean /= float64(withDelta)
	}
	return end, mean, best, float64(connected) / float64(len(rows))
}

// ConvergenceTime returns the first time at which the mean displacement
// stays below ConvergenceEps for the rest of the series (the paper reports
// CMA converging around 10:30, i.e. slot 30): a slot whose mean
// displacement is not below it unsettles the swarm. The row at T = 0,
// before any movement, does not count. It reports ok=false when the
// series never settles or when rows is empty.
func ConvergenceTime(rows []DeltaVsTimeRow) (float64, bool) {
	conv := -1.0
	for _, r := range rows {
		switch {
		case r.T == 0: // before any movement
		case !(r.MeanDisplacement < ConvergenceEps):
			conv = -1
		case conv < 0:
			conv = r.T
		}
	}
	if conv < 0 {
		return 0, false
	}
	return conv, true
}

// CWDRow is one side of the Fig. 3 comparison.
type CWDRow struct {
	// Pattern names the distribution ("uniform" or "cwd").
	Pattern string
	// Delta is δ for the reconstruction from the pattern's samples.
	Delta float64
	// TotalCurvature is Σ|G| over node positions (Eqn 10's objective).
	TotalCurvature float64
	// BalanceResidual is the mean Eqn 9 imbalance.
	BalanceResidual float64
	// MeanNNDist is the mean nearest-neighbor distance.
	MeanNNDist float64
}

// CompareCWD reproduces Fig. 3: the same k nodes arranged uniformly versus
// curvature-weighted, scored by δ and the CWD requirements.
func CompareCWD(f field.Field, opts core.CWDOptions, deltaN int) ([]CWDRow, error) {
	uni := core.UniformPlacement(f.Bounds(), opts.K)
	cwd, err := core.CWDPlacement(f, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: cwd placement: %w", err)
	}
	out := make([]CWDRow, 0, 2)
	for _, c := range []struct {
		name string
		p    core.Placement
	}{{"uniform", uni}, {"cwd", cwd}} {
		ev, err := core.Evaluate(f, c.p, opts.Rc, deltaN)
		if err != nil {
			return nil, fmt.Errorf("eval: evaluate %s: %w", c.name, err)
		}
		sc, err := core.ScoreCWD(f, c.p.Nodes, opts.Rc, opts.Rs)
		if err != nil {
			return nil, fmt.Errorf("eval: score %s: %w", c.name, err)
		}
		out = append(out, CWDRow{
			Pattern:         c.name,
			Delta:           ev.Delta,
			TotalCurvature:  sc.TotalCurvature,
			BalanceResidual: sc.BalanceResidual,
			MeanNNDist:      core.MeanNearestNeighborDist(c.p.Nodes),
		})
	}
	return out, nil
}

// WriteDeltaVsKTable renders the Fig. 7 series of the named placement
// strategy as an aligned text table; the δ column is named after the
// strategy, δ(FRA) for "fra".
func WriteDeltaVsKTable(w io.Writer, strategy string, rows []DeltaVsKRow) error {
	head := fmt.Sprintf("k\tδ(%s)\tδ(random)\trefined\trelays\tconnected", strings.ToUpper(strategy))
	return writeTable(w, head, rows, func(r DeltaVsKRow) string {
		return fmt.Sprintf("%d\t%.1f\t%.1f\t%d\t%d\t%v", r.K, r.Delta, r.Random, r.Refined, r.Relays, r.Connected)
	})
}

// WriteDeltaVsKCSV renders the Fig. 7 series of the named placement
// strategy as CSV; the δ column is named after the strategy, delta_fra
// for "fra".
func WriteDeltaVsKCSV(w io.Writer, strategy string, rows []DeltaVsKRow) error {
	head := fmt.Sprintf("k,delta_%s,delta_random,refined,relays,connected", strategy)
	return writeLines(w, "csv", head, rows, func(r DeltaVsKRow) string {
		return fmt.Sprintf("%d,%g,%g,%d,%d,%v", r.K, r.Delta, r.Random, r.Refined, r.Relays, r.Connected)
	})
}

// WriteDeltaVsTimeTable renders the Fig. 10 series as an aligned table.
func WriteDeltaVsTimeTable(w io.Writer, rows []DeltaVsTimeRow) error {
	return writeTable(w, "t(min)\tδ\tmoved\tmean_disp\tconnected", rows, func(r DeltaVsTimeRow) string {
		return fmt.Sprintf("%.0f\t%s\t%d\t%.3f\t%v",
			r.T, deltaCell("%.1f", r.Delta), r.Moved, r.MeanDisplacement, r.Connected)
	})
}

// WriteDeltaVsTimeCSV renders the Fig. 10 series as CSV.
func WriteDeltaVsTimeCSV(w io.Writer, rows []DeltaVsTimeRow) error {
	return writeLines(w, "csv", "t,delta,moved,mean_disp,connected", rows, func(r DeltaVsTimeRow) string {
		return fmt.Sprintf("%g,%s,%d,%g,%v", r.T, deltaCell("%g", r.Delta), r.Moved, r.MeanDisplacement, r.Connected)
	})
}

// deltaCell formats a row's δ with format, or leaves the cell empty when
// the row has no δ.
func deltaCell(format string, d float64) string {
	if math.IsNaN(d) {
		return ""
	}
	return fmt.Sprintf(format, d)
}

// WriteCWDTable renders the Fig. 3 comparison as an aligned table.
func WriteCWDTable(w io.Writer, rows []CWDRow) error {
	return writeTable(w, "pattern\tδ\tΣ|G|\tbalance_residual\tmean_nn_dist", rows, func(r CWDRow) string {
		return fmt.Sprintf("%s\t%.1f\t%.4g\t%.4g\t%.2f",
			r.Pattern, r.Delta, r.TotalCurvature, r.BalanceResidual, r.MeanNNDist)
	})
}

// writeTable renders rows as an aligned text table under head, one line
// of tab-separated cells per row.
func writeTable[R any](w io.Writer, head string, rows []R, line func(R) string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if err := writeLines(tw, "table", head, rows, line); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}

// writeLines writes head and one line per row to w, each ended by a
// newline — CSV when line separates cells by commas. kind names the
// format in the error.
func writeLines[R any](w io.Writer, kind, head string, rows []R, line func(R) string) error {
	var b strings.Builder
	b.WriteString(head + "\n")
	for _, r := range rows {
		b.WriteString(line(r) + "\n")
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("eval: write %s: %w", kind, err)
	}
	return nil
}
