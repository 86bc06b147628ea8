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
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
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

// DeltaVsTimeRow is one point of the Fig. 10 series.
type DeltaVsTimeRow struct {
	// T is the time in minutes from scenario start.
	T float64
	// Delta is δ at T.
	Delta float64
	// Moved is the number of CMA movers in the slot ending at T.
	Moved int
	// MeanDisplacement is the slot's mean node displacement.
	MeanDisplacement float64
	// Connected reports network connectivity at T.
	Connected bool
	// Positions are the node positions at T. The tables and the CSV do
	// not print them.
	Positions []geom.Vec2
}

// DeltaVsTime steps the engine for the given number of slots, measuring δ
// each slot — the data series of Fig. 10. The first row records the state
// before the first step, so slots = 0 returns it alone.
func DeltaVsTime(w *engine.Engine, slots, deltaN int) ([]DeltaVsTimeRow, error) {
	if slots < 0 || deltaN < 1 {
		return nil, fmt.Errorf("%w: slots=%d deltaN=%d", ErrBadParams, slots, deltaN)
	}
	rows := make([]DeltaVsTimeRow, 0, slots+1)
	st := engine.StepStats{T: w.Time()}
	for s := 0; s <= slots; s++ {
		if s > 0 {
			var err error
			if st, err = w.Step(); err != nil {
				return nil, fmt.Errorf("eval: slot %d: %w", s, err)
			}
		}
		d, err := w.Delta(deltaN)
		if err != nil {
			return nil, fmt.Errorf("eval: δ at t=%g: %w", st.T, err)
		}
		rows = append(rows, DeltaVsTimeRow{
			T:                st.T,
			Delta:            d,
			Moved:            st.Moved,
			MeanDisplacement: st.MeanDisplacement,
			Connected:        w.Connected(),
			Positions:        w.Positions(),
		})
	}
	return rows, nil
}

// ConvergenceTime returns the first time at which the mean displacement
// stays below ConvergenceEps for the rest of the series (the paper reports
// CMA converging around 10:30, i.e. slot 30). The row at T = 0, before any
// movement, does not count. It reports ok=false when the series never
// settles or when rows is empty.
func ConvergenceTime(rows []DeltaVsTimeRow) (float64, bool) {
	conv := -1.0
	for _, r := range rows {
		if r.T != 0 {
			conv = settle(conv, r.T, r.MeanDisplacement)
		}
	}
	if conv < 0 {
		return 0, false
	}
	return conv, true
}

// settle folds one slot ending at t into the convergence time conv, which
// is -1 while the swarm is unsettled: a slot whose mean displacement is
// not below ConvergenceEps unsettles it.
func settle(conv, t, meanDisp float64) float64 {
	if !(meanDisp < ConvergenceEps) {
		return -1
	}
	if conv < 0 {
		return t
	}
	return conv
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
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "k\tδ(%s)\tδ(random)\trefined\trelays\tconnected\n", strings.ToUpper(strategy))
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%d\t%d\t%v\n",
			r.K, r.Delta, r.Random, r.Refined, r.Relays, r.Connected)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}

// WriteDeltaVsKCSV renders the Fig. 7 series of the named placement
// strategy as CSV; the δ column is named after the strategy, delta_fra
// for "fra".
func WriteDeltaVsKCSV(w io.Writer, strategy string, rows []DeltaVsKRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "k,delta_%s,delta_random,refined,relays,connected\n", strategy)
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%g,%g,%d,%d,%v\n",
			r.K, r.Delta, r.Random, r.Refined, r.Relays, r.Connected)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("eval: write csv: %w", err)
	}
	return nil
}

// WriteDeltaVsTimeTable renders the Fig. 10 series as an aligned table.
func WriteDeltaVsTimeTable(w io.Writer, rows []DeltaVsTimeRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "t(min)\tδ\tmoved\tmean_disp\tconnected")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f\t%.1f\t%d\t%.3f\t%v\n",
			r.T, r.Delta, r.Moved, r.MeanDisplacement, r.Connected)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}

// WriteDeltaVsTimeCSV renders the Fig. 10 series as CSV.
func WriteDeltaVsTimeCSV(w io.Writer, rows []DeltaVsTimeRow) error {
	var b strings.Builder
	b.WriteString("t,delta,moved,mean_disp,connected\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%g,%g,%d,%g,%v\n",
			r.T, r.Delta, r.Moved, r.MeanDisplacement, r.Connected)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("eval: write csv: %w", err)
	}
	return nil
}

// WriteCWDTable renders the Fig. 3 comparison as an aligned table.
func WriteCWDTable(w io.Writer, rows []CWDRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pattern\tδ\tΣ|G|\tbalance_residual\tmean_nn_dist")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.4g\t%.4g\t%.2f\n",
			r.Pattern, r.Delta, r.TotalCurvature, r.BalanceResidual, r.MeanNNDist)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}
