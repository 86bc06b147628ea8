package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mobile"
)

// localityAudit collects the single-hop violations and check counts seen
// by every localPlanner of one test. Planners run on the engine's worker
// pool, so the shared record is mutex-guarded.
type localityAudit struct {
	mu         sync.Mutex
	violations []string
	samples    int
	fresh      int
	stale      int
	planners   []*localPlanner
}

func (a *localityAudit) violate(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.violations) < 10 {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

func (a *localityAudit) count(samples, fresh, stale int) {
	a.mu.Lock()
	a.samples += samples
	a.fresh += fresh
	a.stale += stale
	a.mu.Unlock()
}

// factory wraps mobile.DefaultFactory so that every planner it builds
// audits its inputs before delegating.
func (a *localityAudit) factory(id int, cfg mobile.Config) (mobile.Planner, error) {
	p, err := mobile.DefaultFactory(id, cfg)
	if err != nil {
		return nil, err
	}
	lp := &localPlanner{Planner: p, rs: cfg.Rs, rc: cfg.Rc, audit: a, heard: map[int]mobile.NeighborInfo{}}
	a.mu.Lock()
	a.planners = append(a.planners, lp)
	a.mu.Unlock()
	return lp, nil
}

// localPlanner is a CMA planner that asserts it is fed only single-hop
// information: samples from its own sensing disc, fresh reports from
// neighbors within Rc, and stale reports that replay exactly what it last
// heard fresh from that neighbor. It also asserts the calling convention
// Plan relies on: every Plan follows exactly one Estimate at the same
// position, so the calls alternate Estimate, Plan, Estimate, Plan, ...
type localPlanner struct {
	mobile.Planner
	rs, rc float64
	audit  *localityAudit
	// heard is the last fresh report received from each neighbor ID.
	heard map[int]mobile.NeighborInfo
	// estimates counts the Estimate calls since the last Plan, and estPos
	// is the position the latest one saw.
	estimates int
	estPos    geom.Vec2
}

// checkSamples uses the sampler's own predicate (field.Sampler.DiscTimeInto).
func (p *localPlanner) checkSamples(pos geom.Vec2, samples []field.Sample) {
	for _, s := range samples {
		if s.Pos != pos && s.Pos.Dist(pos) > p.rs {
			p.audit.violate("node %d at %v: sample %v outside Rs=%g", p.ID(), pos, s.Pos, p.rs)
		}
	}
}

func (p *localPlanner) Estimate(f *curvature.Fitter, pos geom.Vec2, samples []field.Sample) (float64, error) {
	p.checkSamples(pos, samples)
	p.audit.count(len(samples), 0, 0)
	p.estimates++
	p.estPos = pos
	return p.Planner.Estimate(f, pos, samples)
}

func (p *localPlanner) Plan(pos geom.Vec2, neighbors []mobile.NeighborInfo) (mobile.Decision, error) {
	if p.estimates != 1 || p.estPos != pos {
		p.audit.violate("node %d: Plan at %v after %d Estimate calls (latest at %v); want exactly one, at the same position",
			p.ID(), pos, p.estimates, p.estPos)
	}
	p.estimates = 0
	fresh, stale := 0, 0
	for _, nb := range neighbors {
		if nb.Age == 0 {
			fresh++
			if nb.ID == p.ID() {
				p.audit.violate("node %d heard itself", p.ID())
			}
			if pos.Dist2(nb.Pos) > p.rc*p.rc {
				p.audit.violate("node %d at %v: fresh neighbor %d at %v outside Rc=%g", p.ID(), pos, nb.ID, nb.Pos, p.rc)
			}
			p.heard[nb.ID] = nb
			continue
		}
		stale++
		last, ok := p.heard[nb.ID]
		if !ok || last.Pos != nb.Pos || last.G != nb.G {
			p.audit.violate("node %d: stale report %+v does not replay last fresh report %+v (heard %v)", p.ID(), nb, last, ok)
		}
	}
	p.audit.count(0, fresh, stale)
	return p.Planner.Plan(pos, neighbors)
}

// TestSingleHopLocality is the paper's "fully distributed, merely
// single-hop information" claim stated on the one CMA engine: every
// planner input of every node in every golden scenario (clean, fault
// profile, explicit schedule) is audited for locality and for the
// Estimate-then-Plan order of each slot, and the audit is pure
// observation — the trajectories must stay bit-identical to the goldens.
func TestSingleHopLocality(t *testing.T) {
	audit := &localityAudit{}
	goldenFactory = audit.factory
	defer func() { goldenFactory = nil }()
	verifyGolden(t)
	for _, p := range audit.planners {
		if p.estimates != 0 {
			audit.violate("node %d: run ended with %d Estimate calls not followed by a Plan", p.ID(), p.estimates)
		}
	}
	for _, v := range audit.violations {
		t.Error(v)
	}
	t.Logf("audited %d samples, %d fresh and %d stale reports", audit.samples, audit.fresh, audit.stale)
	// The faulty scenarios lose hellos, so all three input kinds must
	// actually have been exercised for the audit to mean anything.
	if audit.samples == 0 || audit.fresh == 0 || audit.stale == 0 {
		t.Errorf("audit saw %d samples, %d fresh and %d stale reports; want all > 0",
			audit.samples, audit.fresh, audit.stale)
	}
}
