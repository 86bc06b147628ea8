// Package eval is the experiment harness: it regenerates the data series
// behind every figure of the paper's evaluation (Section 6) — δ versus k
// for FRA against random deployment (Fig. 7), δ versus time for CMA
// (Fig. 10), the uniform-versus-CWD comparison (Fig. 3) and the per-run
// surface snapshots (Figs. 5, 6, 8, 9) — and formats them as text tables
// and CSV.
package eval

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/bands"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/surface"
)

// ErrBadParams is returned for invalid sweep parameters.
var ErrBadParams = errors.New("eval: invalid parameters")

// DeltaVsKRow is one point of the Fig. 7 sweep.
type DeltaVsKRow struct {
	// K is the node count.
	K int
	// FRA is δ for the placement under test. The field keeps its
	// historical name for compatibility; when DeltaVsKOptions.Strategy
	// names a different placement, this is that strategy's δ.
	FRA float64
	// Random is δ for random deployment, averaged over RandomDraws.
	Random float64
	// Refined and Relays break down the placement (strategy-specific
	// bookkeeping: FRA's refinement moves and relay insertions, Lloyd's
	// relaxation rounds).
	Refined, Relays int
	// Connected reports whether the placement is connected at Rc.
	Connected bool
}

// DeltaVsKOptions configures the Fig. 7 sweep.
type DeltaVsKOptions struct {
	// Rc is the communication radius (paper: 10).
	Rc float64
	// GridN is the FRA local-error lattice resolution (paper: the
	// one-meter √A lattice, 100).
	GridN int
	// DeltaN is the δ integration lattice resolution.
	DeltaN int
	// RandomDraws is how many random deployments are averaged per k.
	RandomDraws int
	// Seed drives the random baseline.
	Seed int64
	// Metrics, when non-nil, is handed to every FRA run in the sweep (the
	// obs metric mutators are atomic, so the parallel pool shares one
	// registry safely). Sweep outputs are bit-identical either way.
	Metrics *obs.Registry
	// Strategy names the placement under test, resolved from the strategy
	// registry; empty means "fra". Routing "fra" through the registry is
	// bit-identical to the direct core.FRA call this sweep used to make.
	Strategy string
}

// DefaultDeltaVsKOptions returns the paper's Fig. 7 setting.
func DefaultDeltaVsKOptions() DeltaVsKOptions {
	return DeltaVsKOptions{Rc: 10, GridN: 100, DeltaN: 100, RandomDraws: 5, Seed: 1}
}

// DeltaVsK runs the named placement strategy (default FRA) and the random
// baseline for each k and reports δ — the data series of Fig. 7. The
// sweep fans out over the bands.Run pool: every placement run and every
// random draw is an independent task with a fixed seed, and results are
// written into index-addressed slots, so the rows are bit-identical to a
// serial sweep at any GOMAXPROCS. The error returned is that of the
// lowest-indexed failed task, whatever order the tasks ran in. Every task
// reads f's reference lattices from one surface.Reference, so each is
// filled once per sweep.
func DeltaVsK(f field.Field, ks []int, opts DeltaVsKOptions) ([]DeltaVsKRow, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("%w: no k values", ErrBadParams)
	}
	if opts.RandomDraws < 1 {
		opts.RandomDraws = 1
	}
	if opts.Strategy == "" {
		opts.Strategy = "fra"
	}
	placer, err := strategy.LookupPlacement(opts.Strategy)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	f = surface.NewReference(f)
	rows := make([]DeltaVsKRow, len(ks))
	randDelta := make([][]float64, len(ks))
	for i := range randDelta {
		randDelta[i] = make([]float64, opts.RandomDraws)
	}
	tasks := make([]func() error, 0, len(ks)*(1+opts.RandomDraws))
	for i, k := range ks {
		tasks = append(tasks, func() error {
			row, err := PlaceCell(f, placer, strategy.PlaceOptions{
				K: k, Rc: opts.Rc, GridN: opts.GridN, Seed: opts.Seed, Metrics: opts.Metrics,
			}, opts.DeltaN)
			if err != nil {
				return fmt.Errorf("eval: k=%d: %w", k, err)
			}
			rows[i] = row
			return nil
		})
		for d := 0; d < opts.RandomDraws; d++ {
			tasks = append(tasks, func() error {
				delta, err := RandomDraw(f, k, opts.Rc, opts.DeltaN, opts.Seed, d)
				if err != nil {
					return fmt.Errorf("eval: k=%d: %w", k, err)
				}
				randDelta[i][d] = delta
				return nil
			})
		}
	}
	errs := make([]error, len(tasks))
	bands.Run(len(tasks), 1, func(_, i, _ int) { errs[i] = tasks[i]() })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range rows {
		sum := 0.0
		for _, d := range randDelta[i] {
			sum += d
		}
		rows[i].Random = sum / float64(opts.RandomDraws)
	}
	return rows, nil
}

// PlaceCell is the placement half of one Fig. 7 cell: placer puts
// opts.K nodes on f and core.Evaluate scores the placement on a
// deltaN-division lattice. The returned row has every field but Random.
// DeltaVsK and the sweep engine's static phase (sweep.RunCell) both run
// exactly this, so their δ agree bit for bit.
func PlaceCell(f field.Field, placer strategy.Placement, opts strategy.PlaceOptions, deltaN int) (DeltaVsKRow, error) {
	p, err := placer.Place(f, opts)
	if err != nil {
		return DeltaVsKRow{}, fmt.Errorf("%s: %w", placer.Name(), err)
	}
	ev, err := core.Evaluate(f, p, opts.Rc, deltaN)
	if err != nil {
		return DeltaVsKRow{}, fmt.Errorf("evaluate %s: %w", placer.Name(), err)
	}
	return DeltaVsKRow{
		K:         opts.K,
		FRA:       ev.Delta,
		Refined:   p.Refined,
		Relays:    p.Relays,
		Connected: ev.Connected,
	}, nil
}

// RandomDraw is the baseline half of one Fig. 7 cell: δ of random
// deployment number d (seeded seed+d) of k nodes on f. The draw reuses
// FRA's reconstruction anchors, the region corners, for fairness. A
// cell's Random is the mean of draws 0..RandomDraws-1 summed in draw
// order.
func RandomDraw(f field.Field, k int, rc float64, deltaN int, seed int64, d int) (float64, error) {
	corners := f.Bounds().Corners()
	r := core.RandomPlacement(f.Bounds(), k, seed+int64(d))
	r.Anchors = corners[:]
	ev, err := core.Evaluate(f, r, rc, deltaN)
	if err != nil {
		return 0, fmt.Errorf("evaluate random draw %d: %w", d, err)
	}
	return ev.Delta, nil
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

// WriteDeltaVsKTable renders the Fig. 7 series as an aligned text table.
func WriteDeltaVsKTable(w io.Writer, rows []DeltaVsKRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "k\tδ(FRA)\tδ(random)\trefined\trelays\tconnected")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%d\t%d\t%v\n",
			r.K, r.FRA, r.Random, r.Refined, r.Relays, r.Connected)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}

// WriteDeltaVsKCSV renders the Fig. 7 series as CSV.
func WriteDeltaVsKCSV(w io.Writer, rows []DeltaVsKRow) error {
	var b strings.Builder
	b.WriteString("k,delta_fra,delta_random,refined,relays,connected\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%g,%g,%d,%d,%v\n",
			r.K, r.FRA, r.Random, r.Refined, r.Relays, r.Connected)
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
