// Package mobile implements the paper's second contribution: the
// Coordinated Movement Algorithm (CMA, Section 5.3) executed on each
// mobile CPS node, together with the Local Connectivity Mechanism (LCM,
// Section 5.2) that keeps the network connected while nodes move.
//
// The controller is strictly local, mirroring Table 2: a node knows only
// what it senses within Rs and what single-hop neighbors within Rc tell
// it. Per time slot it (1) fits the Gaussian curvature of the local
// surface patch, (2) exchanges position + curvature with neighbors,
// (3) combines the three virtual forces
//
//	F1 = d(ni, pc)·G(pc)        attraction to the highest-curvature
//	                            position sensed in range (Eqn 14)
//	F2 = Σ d(ni, nj)·G(nj)      curvature-weighted attraction to
//	                            neighbors — the balance pivot (Eqn 15)
//	Fr = Σ (Rc − d(ni, nj))     pairwise repulsion for distance
//	                            control (Eqn 17)
//
// into Fs = F1 + F2 + β·Fr (Eqn 18) and moves along Fs, velocity-limited.
package mobile

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/curvature"
	"repro/internal/field"
	"repro/internal/geom"
)

// ErrBadConfig is returned for invalid controller parameters.
var ErrBadConfig = errors.New("mobile: invalid config")

// Config holds the per-node CMA parameters.
type Config struct {
	// Region is the region of interest A; nodes never leave it.
	Region geom.Rect
	// Rc is the communication radius.
	Rc float64
	// Rs is the sensing radius.
	Rs float64
	// Beta is the repulsion weight β of Eqn 18. The paper's evaluation
	// uses β = 2.
	Beta float64
	// MaxStep is the maximum distance moved per time slot (v·Δt; the
	// paper's v = 1 m/min with one-minute slots gives 1).
	MaxStep float64
	// StopEps is the force magnitude below which the node stops (the
	// paper's Fs == 0 test, with numeric tolerance).
	StopEps float64
	// CurvGain scales the curvature attractions F1 and F2 relative to the
	// repulsion Fr. The controller normalizes curvature weights into
	// [0, 1] to stay scale-free across environments, which makes the
	// attractions stronger than the paper's raw (physically tiny) G
	// values; the gain restores the paper's regime where curvature
	// perturbs the distance-controlled lattice rather than collapsing it.
	// 0 defaults to 0.15.
	CurvGain float64
	// RobustFit selects Huber-weighted least squares for the curvature
	// fits, so outlier samples injected by sensing faults cannot hijack
	// the force balance. Off by default: the clean-sensing paths must stay
	// bit-identical to the paper's QR fit.
	RobustFit bool
	// RepulseFrac sets the repulsion range as a fraction of Rc: neighbors
	// repel while closer than RepulseFrac·Rc. The paper's Eqn 17 uses
	// exactly Rc (fraction 1), which is the default. Values below 1 give
	// the lattice an equilibrium spacing strictly inside communication
	// range, which quiets the perimeter tug-of-war between repulsion and
	// the LCM: per-slot displacement drops several-fold (closer to the
	// paper's "nodes barely move") at the cost of a few percent in
	// mid-run δ — the knob trades tracking for quiescence (see
	// BenchmarkExtRepulseGuardBand). 0 defaults to 1.
	RepulseFrac float64
}

// DefaultConfig returns the paper's Section 6 mobile settings: Rc = 10 m,
// Rs = 5 m, β = 2, v = 1 m/min on the 100×100 m² region.
func DefaultConfig() Config {
	return Config{
		Region:      geom.Square(100),
		Rc:          10,
		Rs:          5,
		Beta:        2,
		MaxStep:     1,
		StopEps:     0.8,
		CurvGain:    0.15,
		RepulseFrac: 1,
	}
}

// Validate reports whether the configuration is usable: Rc, Rs and
// MaxStep must be positive and finite, Beta non-negative and finite. The
// comparisons are written so that NaN fails them.
func (c Config) Validate() error {
	switch {
	case !(c.Rc > 0) || math.IsInf(c.Rc, 1):
		return fmt.Errorf("%w: Rc=%v", ErrBadConfig, c.Rc)
	case !(c.Rs > 0) || math.IsInf(c.Rs, 1):
		return fmt.Errorf("%w: Rs=%v", ErrBadConfig, c.Rs)
	case !(c.MaxStep > 0) || math.IsInf(c.MaxStep, 1):
		return fmt.Errorf("%w: MaxStep=%v", ErrBadConfig, c.MaxStep)
	case !(c.Beta >= 0) || math.IsInf(c.Beta, 1):
		return fmt.Errorf("%w: Beta=%v", ErrBadConfig, c.Beta)
	case c.Region.Area() <= 0:
		return fmt.Errorf("%w: empty region", ErrBadConfig)
	}
	return nil
}

// NeighborInfo is what a node learns from one single-hop neighbor's
// broadcast: its ID, position, and Gaussian curvature estimate — exactly
// the Tx/Rx payload of Table 2.
type NeighborInfo struct {
	// ID identifies the neighbor.
	ID int
	// Pos is the neighbor's reported position.
	Pos geom.Vec2
	// G is the neighbor's reported Gaussian curvature estimate.
	G float64
	// Age is how many slots old this report is: 0 for a hello received
	// this slot, >0 when the caller replays a cached report because the
	// neighbor has gone silent (message loss or death). Stale reports
	// contribute exponentially decayed forces (staleDecay per slot of age).
	Age int
}

// Decision is a node's plan for the current slot.
type Decision struct {
	// G is the node's own curvature estimate, to be broadcast.
	G float64
	// F1, F2, Fr, Fs are the virtual force components and resultant.
	F1, F2, Fr, Fs geom.Vec2
	// Peak is pc — the highest-curvature position sensed in range.
	Peak geom.Vec2
	// Target is nd — the announced destination when moving.
	Target geom.Vec2
	// Move reports whether the node moves this slot (|Fs| > StopEps).
	Move bool
}

// FitMethod returns the curvature least-squares backend the configuration
// selects: Huber under RobustFit, the paper's QR fit otherwise. Callers
// that share curvature.Fitter scratch across controllers (the engine's
// per-worker fitters) must build those fitters with this method.
func (c Config) FitMethod() curvature.Method {
	if c.RobustFit {
		return curvature.Huber
	}
	return curvature.QR
}

// Controller is the per-node CMA state machine. Each node owns one; it is
// not safe for concurrent use by multiple goroutines.
type Controller struct {
	cfg Config
	id  int
	// maxG is the largest curvature magnitude observed so far (own
	// estimates and neighbor broadcasts); it normalizes curvature weights
	// so the force balance is scale-free across environments. Purely
	// local information.
	maxG float64
	// parked reports that the node has reached its virtual-force balance
	// and stopped. A parked node resumes only when the force grows past
	// RestartFactor·StopEps — hysteresis that keeps small residual forces
	// (boundary flicker, LCM nudges) from waking the whole swarm and
	// lets it genuinely converge, as in the paper's Fig. 10.
	parked bool
	// blind, g, peak and peakG are this slot's Estimate, read by Plan:
	// whether the node sensed too few samples to steer on, its own
	// curvature G, and the highest-curvature sensed position pc with its
	// curvature.
	blind bool
	g     float64
	peak  geom.Vec2
	peakG float64
}

// peakFitM is the number of nearest samples used when estimating the
// curvature at candidate peak positions.
const peakFitM = 12

// restartFactor is the hysteresis ratio between the wake-up and stop
// thresholds of the movement deadband.
const restartFactor = 2

// staleDecay is the per-slot-of-age factor applied to the F2 attraction
// and Fr repulsion of a neighbor whose report is stale (NeighborInfo.Age
// > 0): a silent — possibly dead — neighbor's influence decays as
// staleDecay^Age until the caller drops it at its staleness timeout.
// Fresh reports (Age 0) are never scaled, keeping lossless runs
// bit-identical.
const staleDecay = 0.5

// minFitSamples is the fewest sensed readings a node will steer on: the full
// quadric fit has six unknowns, and below that the force computation is
// numerically meaningless. Nodes with a thinner view hold position.
const minFitSamples = 6

// NewController returns a controller for node id.
func NewController(id int, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StopEps <= 0 {
		cfg.StopEps = 0.8
	}
	if cfg.CurvGain == 0 {
		cfg.CurvGain = 0.15
	}
	if cfg.RepulseFrac <= 0 || cfg.RepulseFrac > 1 {
		cfg.RepulseFrac = 1
	}
	return &Controller{cfg: cfg, id: id}, nil
}

// ID returns the node ID the controller was built for.
func (c *Controller) ID() int { return c.id }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Estimate is the first half of one CMA slot (Table 2 lines 2–3): it fits
// the node's own Gaussian curvature G from its sensed samples and scans
// them for the peak candidate pc, keeps both for this slot's Plan, and
// returns G for the node's broadcast. f is the fit scratch; it must have
// been built with Config.FitMethod.
func (c *Controller) Estimate(f *curvature.Fitter, pos geom.Vec2, samples []field.Sample) (float64, error) {
	// Degraded sensing (dropouts left fewer readings than the full
	// quadric's six unknowns): the 3-term fallback fit is wildly
	// ill-conditioned on such geometry, so instead of steering on garbage
	// forces the node holds position and broadcasts zero curvature until
	// its sensor view recovers.
	c.blind = len(samples) < minFitSamples
	if c.blind {
		return 0, nil
	}
	est, err := f.Fit(pos, samples)
	if err != nil {
		if !errors.Is(err, curvature.ErrTooFewSamples) {
			return 0, fmt.Errorf("mobile: node %d curvature: %w", c.id, err)
		}
		est = curvature.Estimate{} // blind node: zero curvature
	}
	c.g = est.Gaussian
	c.observeG(c.g)
	// F1 candidates: the sensed sample positions; the curvature at each is
	// fitted from its nearest sampled neighbors (Eqn 14).
	c.peak, c.peakG = c.findPeak(f, pos, samples)
	// Deadband pre-update from |F1| alone, before any report: the goldens pin it.
	c.parked = c.f1(pos).Len() <= c.threshold()
	return c.g, nil
}

// Plan is the second half of one CMA slot (Table 2 lines 6–18): it
// evaluates the virtual forces from this slot's Estimate and the neighbor
// reports, and decides whether and where to move.
func (c *Controller) Plan(pos geom.Vec2, neighbors []NeighborInfo) (Decision, error) {
	var d Decision
	for _, nb := range neighbors {
		c.observeG(nb.G)
	}
	if c.blind {
		// Neighbor curvature reports still feed the normalizer, so the
		// node rejoins the force balance seamlessly once it sees again.
		d.Peak = pos
		d.Target = pos
		return d, nil
	}
	d.G = c.g

	// F1: attraction to the highest-curvature position in sensing range.
	d.Peak = c.peak
	d.F1 = c.f1(pos)

	// F2: curvature-weighted attraction toward neighbors (Eqn 15). Stale
	// reports (Age > 0) decay exponentially so a dead neighbor's pull
	// fades out instead of pinning the swarm to a corpse; fresh reports
	// take the exact unscaled path.
	for _, nb := range neighbors {
		scale := c.cfg.CurvGain * c.weight(nb.G)
		if nb.Age > 0 {
			scale *= staleWeight(nb.Age)
		}
		d.F2 = d.F2.Add(nb.Pos.Sub(pos).Scale(scale))
	}

	// Fr: repulsion from each neighbor, magnitude (RepulseFrac·Rc) − d
	// (Eqn 17 with the guard band; see Config.RepulseFrac). Stale
	// neighbors repel with the same decayed confidence as they attract.
	repulseRange := c.cfg.RepulseFrac * c.cfg.Rc
	for _, nb := range neighbors {
		dist := pos.Dist(nb.Pos)
		if dist >= repulseRange {
			continue
		}
		away := pos.Sub(nb.Pos)
		if dist == 0 {
			// Coincident nodes: deterministic symmetric break by ID.
			angle := float64(c.id) * 2.399963 // golden angle
			away = geom.V2(math.Cos(angle), math.Sin(angle))
		} else {
			away = away.Scale(1 / dist)
		}
		mag := repulseRange - dist
		if nb.Age > 0 {
			mag *= staleWeight(nb.Age)
		}
		d.Fr = d.Fr.Add(away.Scale(mag))
	}

	d.Fs = d.F1.Add(d.F2).Add(d.Fr.Scale(c.cfg.Beta))
	if d.Fs.Len() <= c.threshold() {
		c.parked = true
		d.Move = false
		d.Target = pos
		return d, nil
	}
	c.parked = false
	d.Move = true
	// nd: Rs distance along Fs (Table 2 line 16), clamped to the region;
	// actual per-slot displacement is additionally velocity-limited by the
	// caller via Step.
	d.Target = c.cfg.Region.ClampPoint(pos.Add(d.Fs.Normalize().Scale(c.cfg.Rs)))
	return d, nil
}

// f1 is the attraction to the peak candidate pc (Eqn 14), weighted by the
// normalizer as it stands.
func (c *Controller) f1(pos geom.Vec2) geom.Vec2 {
	return c.peak.Sub(pos).Scale(c.cfg.CurvGain * c.weight(c.peakG))
}

// threshold is the force magnitude the node must exceed to move: StopEps,
// or restartFactor·StopEps once parked.
func (c *Controller) threshold() float64 {
	if c.parked {
		return restartFactor * c.cfg.StopEps
	}
	return c.cfg.StopEps
}

// Step returns the node's next position when executing decision d from
// pos. The step length is force-proportional — min(MaxStep, |Fs|) — so the
// node slows as it approaches the virtual-force balance instead of
// overshooting at full velocity; MaxStep remains the hard velocity limit
// (v·Δt).
func (c *Controller) Step(pos geom.Vec2, d Decision) geom.Vec2 {
	if !d.Move {
		return pos
	}
	dir := d.Target.Sub(pos)
	if dir.Len() == 0 {
		return pos
	}
	// Smooth deadband: only the force in excess of the stop threshold
	// produces motion, so step lengths decay to zero as a node approaches
	// its virtual-force balance and the swarm quiesces (the paper's
	// convergence around 10:30 in Fig. 10) instead of hunting around the
	// balance point at full speed.
	stepLen := math.Min(c.cfg.MaxStep, d.Fs.Len()-c.cfg.StopEps)
	if stepLen <= 0 {
		return pos
	}
	return c.cfg.Region.ClampPoint(pos.Add(dir.Normalize().Scale(stepLen)))
}

// observeG folds a curvature observation into the running normalizer.
func (c *Controller) observeG(g float64) {
	if a := math.Abs(g); a > c.maxG {
		c.maxG = a
	}
}

// staleWeight is the exponential confidence decay of a report that is age
// slots old.
func staleWeight(age int) float64 {
	return math.Pow(staleDecay, float64(age))
}

// weight converts a raw curvature into a normalized force weight in
// [0, 1]. Normalizing by the largest curvature magnitude seen keeps the
// attraction and repulsion terms comparable regardless of the physical
// units of the sensed quantity.
func (c *Controller) weight(g float64) float64 {
	if c.maxG == 0 {
		return 0
	}
	return math.Abs(g) / c.maxG
}

// findPeak returns the sensed position with the highest curvature
// magnitude and that curvature. Candidates are restricted to the inner
// part of the sensing disc: fits centered near the disc edge see only
// one-sided neighborhoods and produce wildly unstable curvature
// estimates, which would make pc — and hence F1 — jitter between slots.
// Each candidate's |G| is the m-nearest fit of Eqn 14 over the node's
// own samples (curvature.Fitter.Peak).
func (c *Controller) findPeak(f *curvature.Fitter, pos geom.Vec2, samples []field.Sample) (geom.Vec2, float64) {
	return f.Peak(pos, samples, peakFitM, 0.7*c.cfg.Rs)
}
