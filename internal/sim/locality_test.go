package sim

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
	return &localPlanner{Planner: p, rs: cfg.Rs, rc: cfg.Rc, audit: a, heard: map[int]mobile.NeighborInfo{}}, nil
}

// localPlanner is a CMA planner that asserts it is fed only single-hop
// information: samples from its own sensing disc, fresh reports from
// neighbors within Rc, and stale reports that replay exactly what it last
// heard fresh from that neighbor.
type localPlanner struct {
	mobile.Planner
	rs, rc float64
	audit  *localityAudit
	// heard is the last fresh report received from each neighbor ID.
	heard map[int]mobile.NeighborInfo
}

// checkSamples uses the sampler's own predicate (field.Sampler.DiscTimeInto).
func (p *localPlanner) checkSamples(pos geom.Vec2, samples []field.Sample) {
	for _, s := range samples {
		if s.Pos != pos && s.Pos.Dist(pos) > p.rs {
			p.audit.violate("node %d at %v: sample %v outside Rs=%g", p.ID(), pos, s.Pos, p.rs)
		}
	}
}

func (p *localPlanner) PlanEstimate(f *curvature.Fitter, pos geom.Vec2, samples []field.Sample) (mobile.Decision, error) {
	p.checkSamples(pos, samples)
	p.audit.count(len(samples), 0, 0)
	return p.Planner.PlanEstimate(f, pos, samples)
}

func (p *localPlanner) PlanCached(f *curvature.Fitter, pos geom.Vec2, samples []field.Sample, neighbors []mobile.NeighborInfo) (mobile.Decision, error) {
	p.checkSamples(pos, samples)
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
	p.audit.count(len(samples), fresh, stale)
	return p.Planner.PlanCached(f, pos, samples, neighbors)
}

// TestSingleHopLocality is the paper's "fully distributed, merely
// single-hop information" claim stated on the one CMA engine: every
// planner input of every node in every golden scenario (clean, fault
// profile, explicit schedule) is audited for locality, and the audit is
// pure observation — the trajectories must stay bit-identical to the
// goldens.
func TestSingleHopLocality(t *testing.T) {
	audit := &localityAudit{}
	goldenFactory = audit.factory
	defer func() { goldenFactory = nil }()
	verifyGolden(t)
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
