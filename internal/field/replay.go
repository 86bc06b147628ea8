package field

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Replay turns a recorded trace (the TraceRecord rows ReadTrace parses)
// back into a DynField, so real deployments — or any logged run — replay
// under FRA/CMA and the fault injector exactly like an analytic field
// (ROADMAP item 4b). Records are grouped into epochs by their exact
// timestamp; a query at time t brackets t between the two surrounding
// epochs, evaluates each by nearest-sample lookup (lowest index on
// ties), and blends linearly in time.
//
// Determinism contract: evaluating at a record's own timestamp takes the
// exact-epoch path with no temporal blend, so EvalAt(r.Pos, r.T) is
// bit-equal to r.Z for the first record at that position and time
// (FuzzTraceReplay pins this). Outside the recorded span the nearest
// epoch holds: the field is clamped, not extrapolated.
type Replay struct {
	region geom.Rect
	times  []float64  // strictly increasing epoch timestamps
	epochs [][]Sample // samples per epoch, input order, first-wins dedup
}

// NewReplay builds a Replay over region from trace records in any order.
// Rows may be unsorted, duplicated, or torn across epochs: records are
// stably sorted by timestamp (ties keep input order), grouped by exact
// T, and within an epoch the first record at a given position wins.
// Records with a NaN timestamp (unorderable) or a non-finite position
// (no meaningful distance) are rejected.
func NewReplay(region geom.Rect, records []TraceRecord) (*Replay, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("field: replay: no records")
	}
	sorted := append([]TraceRecord(nil), records...)
	for i, r := range sorted {
		if math.IsNaN(r.T) {
			return nil, fmt.Errorf("field: replay: record %d has NaN timestamp", i)
		}
		if math.IsNaN(r.Pos.X) || math.IsInf(r.Pos.X, 0) ||
			math.IsNaN(r.Pos.Y) || math.IsInf(r.Pos.Y, 0) {
			return nil, fmt.Errorf("field: replay: record %d has non-finite position", i)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })

	rp := &Replay{region: region}
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].T == sorted[i].T {
			j++
		}
		epoch := make([]Sample, 0, j-i)
		seen := make(map[geom.Vec2]bool, j-i)
		for _, r := range sorted[i:j] {
			if seen[r.Pos] {
				continue
			}
			seen[r.Pos] = true
			epoch = append(epoch, r.Sample)
		}
		rp.times = append(rp.times, sorted[i].T)
		rp.epochs = append(rp.epochs, epoch)
		i = j
	}
	return rp, nil
}

// Bounds implements DynField.
func (r *Replay) Bounds() geom.Rect { return r.region }

// EvalAt implements DynField: time-bracketed nearest-sample fits.
func (r *Replay) EvalAt(p geom.Vec2, t float64) float64 {
	// SearchFloat64s returns the first index with times[i] >= t, so an
	// exact timestamp hit lands on its own epoch and skips the blend.
	i := sort.SearchFloat64s(r.times, t)
	if i < len(r.times) && r.times[i] == t {
		return evalEpoch(r.epochs[i], p)
	}
	if i == 0 {
		return evalEpoch(r.epochs[0], p)
	}
	if i == len(r.times) {
		return evalEpoch(r.epochs[len(r.epochs)-1], p)
	}
	t0, t1 := r.times[i-1], r.times[i]
	v0 := evalEpoch(r.epochs[i-1], p)
	v1 := evalEpoch(r.epochs[i], p)
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// evalEpoch is the nearest-sample spatial fit, lowest index on ties.
func evalEpoch(samples []Sample, p geom.Vec2) float64 {
	best, bestD := 0, p.Dist2(samples[0].Pos)
	for i := 1; i < len(samples); i++ {
		if d := p.Dist2(samples[i].Pos); d < bestD {
			best, bestD = i, d
		}
	}
	return samples[best].Z
}
