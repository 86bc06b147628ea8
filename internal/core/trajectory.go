package core

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/field"
	"repro/internal/surface"
)

// The budget k acts on FRA only through its foresight step, so on one
// field every k takes the steps of the budget-free run, the greedy
// insertion sequence, until its relay bill binds. A trajectory records
// that run once per Reference, GridN and Rc, with the two bills a
// budgeted run checks at each step, and FRA follows it up to the first
// step where its own budget binds:
//
//   - the foresight trigger: at s > 0 selected nodes, the bill before the
//     step is at least k − s;
//   - an unaffordable pick: the bill with the step's node exceeds k − s − 1,
//     so the budgeted run would try another candidate.
//
// Up to that step both runs hold the same state, so FRA rebuilds its own
// from the recorded samples and runs its loop from there; when no step
// binds before k nodes, the placement is the first k picks.

// trajectoryKey names a Reference's trajectory.
type trajectoryKey struct {
	gridN int
	rc    float64
}

// trajStep is one step of the budget-free run.
type trajStep struct {
	s      field.Sample // the node and f there
	before int          // relay bill before the step
	with   int          // relay bill with the node
	banned bool         // the node duplicated a sample and was banned
}

// trajectory is the budget-free run on one Reference at one GridN and Rc.
// Its recorded steps are published append-only, so readers take them
// without a lock; an extension holds mu for one step.
type trajectory struct {
	f     *surface.Reference
	gridN int
	rc    float64
	steps atomic.Pointer[[]trajStep]
	bytes atomic.Int64

	mu sync.Mutex // serializes extension; guards st and ended
	// st is the run's live state, nil before the first extension and
	// once the run has ended.
	st *fraState
	// ended records that no further step exists: the run ran out of
	// candidates, or an extension panicked and st could be half-updated.
	ended bool
}

// trajectoryOf returns ref's trajectory for gridN and rc.
func trajectoryOf(ref *surface.Reference, gridN int, rc float64) *trajectory {
	return ref.Derived(trajectoryKey{gridN, rc}, func() surface.Derived {
		t := &trajectory{f: ref, gridN: gridN, rc: rc}
		t.steps.Store(new([]trajStep))
		return t
	}).(*trajectory)
}

// Bytes implements surface.Derived: the recorded steps, plus the live
// state's lattice and an estimate of its per-node triangulation, oracle
// and set entries.
func (t *trajectory) Bytes() int64 { return t.bytes.Load() }

// nodeBytes estimates what one selected node costs the live state.
const nodeBytes = 256

// step returns step i, extending the run by one step when i is the first
// unrecorded one. ok is false when the run has no step i.
func (t *trajectory) step(i int, met *fraMetrics) (trajStep, bool) {
	if steps := *t.steps.Load(); i < len(steps) {
		return steps[i], true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	steps := *t.steps.Load()
	if i < len(steps) {
		return steps[i], true
	}
	if t.ended || i > len(steps) {
		return trajStep{}, false
	}
	return t.extend(steps, met)
}

// extend runs one budget-free refinement step and records it. Any exit
// without a recorded step, a panic included, ends the run. The caller
// holds mu.
func (t *trajectory) extend(steps []trajStep, met *fraMetrics) (step trajStep, ok bool) {
	defer func() {
		if !ok {
			t.st, t.ended = nil, true
		}
		t.bytes.Store(t.size())
	}()
	if t.st == nil {
		st, err := newFRAState(t.f, t.rc, 0)
		if err != nil {
			return trajStep{}, false
		}
		st.startRefining(t.gridN, true)
		t.st = st
	}
	step.before = t.st.oracle.Relays()
	s, with, out := t.st.refine(math.MaxInt, met)
	if out == stepExhausted {
		return trajStep{}, false
	}
	step.s, step.with, step.banned = s, with, out == stepBanned
	steps = append(steps, step)
	t.steps.Store(&steps)
	return step, true
}

// size is Bytes' value. The caller holds mu.
func (t *trajectory) size() int64 {
	n := int64(cap(*t.steps.Load())) * int64(unsafe.Sizeof(trajStep{}))
	if t.st != nil {
		n += t.st.grid.Bytes() + int64(len(t.st.selected)+len(t.st.banned))*nodeBytes
	}
	return n
}

// walk follows the trajectory for a k-node run and returns the steps it
// shares with the run, the picks among them, and whether the run's next
// step is the foresight trigger. It sets the relay gauges at each step as
// run would.
func (t *trajectory) walk(k int, met *fraMetrics) (shared []trajStep, picks int, trigger bool) {
	i := 0
	for ; picks < k; i++ {
		step, ok := t.step(i, met)
		if !ok {
			break
		}
		remaining := k - picks
		met.relayBudget.Set(float64(remaining - 1))
		met.relayBill.Set(float64(step.before))
		if picks > 0 && step.before >= remaining {
			trigger = true
			break
		}
		if step.with > remaining-1 {
			break
		}
		if !step.banned {
			picks++
		}
	}
	return (*t.steps.Load())[:i], picks, trigger
}

// follow places k nodes on a fresh state of t's Reference: the steps it
// shares with t, then the rest of run. It needs the lattice and the
// oracle only when refinement continues past the shared steps.
func (st *fraState) follow(t *trajectory, k, gridN int, met *fraMetrics) {
	shared, picks, trigger := t.walk(k, met)
	met.prefix.Add(int64(picks))
	if picks == k {
		for _, step := range shared {
			if !step.banned {
				st.selected = append(st.selected, step.s.Pos)
			}
		}
		st.refined = k
		return
	}
	// Replay every insertion, the banned ones too: a refused duplicate
	// still moves the triangulation's walk hint.
	for _, step := range shared {
		if _, _, err := st.add(step.s); err != nil {
			st.banned[step.s.Pos] = true
		} else {
			st.refined++
		}
	}
	if trigger {
		st.spendRestOnRelays(k)
		return
	}
	st.startRefining(gridN, true)
	st.run(k, true, met)
}
