// Package fault is the deterministic fault-injection engine for the OSTD
// experiments. Real CPS nodes crash and drop radio messages; the paper's
// deployment premise — k nodes keeping a connected G(V,E) while tracking
// the field — only matters if it survives those failure modes. The
// paper assumes energy suffices for the movement, so batteries are not
// modelled. The Injector models the rest from a single seed:
//
//   - crash-stop node failures (per-slot Bernoulli draws), plus an
//     explicit deterministic Schedule of kills and revivals,
//   - per-link Gilbert–Elliott message loss on the (position, G)
//     neighbor exchange — bursty, as real radios are,
//   - sensing faults: per-sample dropouts and Gaussian outlier spikes.
//
// Every decision is bit-reproducible from Config.Seed: each node and each
// link owns an independent splitmix-derived RNG stream, so the schedule a
// given entity experiences never depends on how many other entities exist
// or in which order they are queried within a slot. An injector plugs into
// engine.Engine via Options.Faults; a zero Config is inert and provably
// leaves the simulation bit-identical to a fault-free run.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/field"
	"repro/internal/obs"
)

// Sample aliases field.Sample, the sensed-reading type the sensing fault
// channel corrupts.
type Sample = field.Sample

// GilbertElliott parameterizes the classic two-state burst-loss channel:
// a link is either in a Good or a Bad state, transitions between them once
// per slot, and drops each delivery with the state's loss probability.
type GilbertElliott struct {
	// PGoodToBad is the per-slot probability of entering the Bad state.
	PGoodToBad float64
	// PBadToGood is the per-slot probability of leaving the Bad state.
	PBadToGood float64
	// LossGood is the delivery loss probability in the Good state.
	LossGood float64
	// LossBad is the delivery loss probability in the Bad state.
	LossBad float64
}

// Enabled reports whether the channel can ever lose a message.
func (ge GilbertElliott) Enabled() bool {
	return ge.LossGood > 0 || (ge.LossBad > 0 && ge.PGoodToBad > 0)
}

// Event is one entry of a deterministic fault schedule.
type Event struct {
	// Slot is the time slot at which the event fires.
	Slot int
	// Node is the affected node index.
	Node int
	// Up revives the node when true; kills it when false.
	Up bool
}

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every random fault decision.
	Seed int64
	// CrashProb is the per-slot probability that an alive node crashes.
	// A random crash is permanent unless a Schedule event revives it.
	CrashProb float64
	// Schedule lists deterministic kill/revive events, applied in slot
	// order (and, within a slot, in list order) before the random draws.
	Schedule []Event
	// Link is the Gilbert–Elliott loss model applied independently to
	// every undirected link's channel state (deliveries in the two
	// directions draw separately from the shared state).
	Link GilbertElliott
	// SenseDropProb is the per-sample probability that a sensed reading
	// is lost entirely.
	SenseDropProb float64
	// SenseOutlierProb is the per-sample probability that a reading is
	// corrupted by an additive Gaussian spike.
	SenseOutlierProb float64
	// SenseOutlierStd is the standard deviation of the outlier spikes.
	SenseOutlierStd float64
}

// Active reports whether the configuration can perturb a run at all.
// engine.Engine uses it to keep the fault-free fast path bit-identical.
func (c Config) Active() bool {
	return c.CrashProb > 0 || len(c.Schedule) > 0 || c.Link.Enabled() ||
		c.SenseDropProb > 0 || c.SenseOutlierProb > 0
}

// Profile returns a Config in which a single failure-rate knob scales
// every fault channel: rate is the expected fraction of nodes that crash
// over a run of the given number of slots (converted to the equivalent
// per-slot Bernoulli probability), link loss burstiness, sensing dropouts
// and outliers all grow proportionally. rate 0 yields an inert config, so
// a Profile(0, …) run is bit-identical to a fault-free one.
func Profile(rate float64, slots int, seed int64) Config {
	if rate <= 0 || slots <= 0 {
		return Config{Seed: seed}
	}
	if rate > 0.95 {
		rate = 0.95
	}
	return Config{
		Seed:      seed,
		CrashProb: 1 - math.Pow(1-rate, 1/float64(slots)),
		Link: GilbertElliott{
			PGoodToBad: 0.2 * rate,
			PBadToGood: 0.4,
			LossGood:   0.02 * rate,
			LossBad:    0.6,
		},
		SenseDropProb:    0.3 * rate,
		SenseOutlierProb: 0.1 * rate,
		SenseOutlierStd:  4,
	}
}

// cause records why a node is down.
type cause uint8

const (
	upNode cause = iota
	crashRandom
	crashScheduled
)

// geChain is one undirected link's channel state.
type geChain struct {
	rng  *rand.Rand
	slot int // last slot the state was advanced to
	bad  bool
}

// Injector holds the fault state of one simulated world. It is not safe
// for concurrent use; attach each instance to exactly one world.
type Injector struct {
	cfg    Config
	n      int
	down   []cause
	deaths int

	crashRNG []*rand.Rand // lazily built per-node crash streams
	senseRNG []*rand.Rand // lazily built per-node sensing-fault streams
	links    map[int64]*geChain
	lastSlot int
	met      *injMetrics // nil: fault events are not exported
}

// injMetrics holds the injector's fault-event counters; every mutation
// site is nil-guarded through the obs fast path, so an unobserved
// injector draws and decides exactly as an observed one.
type injMetrics struct {
	deaths     *obs.Counter // fault_deaths_total (all causes)
	crashes    *obs.Counter // fault_deaths_crash_total
	scheduled  *obs.Counter // fault_deaths_scheduled_total
	recoveries *obs.Counter // fault_recoveries_total
	linkDrops  *obs.Counter // fault_link_drops_total
	senseDrops *obs.Counter // fault_sample_drops_total
	outliers   *obs.Counter // fault_sample_outliers_total
	alive      *obs.Gauge   // fault_alive (refreshed each BeginSlot)
}

// SetMetrics attaches fault-event counters from reg to the injector; a
// nil registry detaches them. Metrics record outcomes only — no RNG
// stream is consulted — so attaching them cannot change a trajectory.
func (in *Injector) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		in.met = nil
		return
	}
	in.met = &injMetrics{
		deaths:     reg.Counter("fault_deaths_total"),
		crashes:    reg.Counter("fault_deaths_crash_total"),
		scheduled:  reg.Counter("fault_deaths_scheduled_total"),
		recoveries: reg.Counter("fault_recoveries_total"),
		linkDrops:  reg.Counter("fault_link_drops_total"),
		senseDrops: reg.Counter("fault_sample_drops_total"),
		outliers:   reg.Counter("fault_sample_outliers_total"),
		alive:      reg.Gauge("fault_alive"),
	}
}

// NewInjector returns an injector for n nodes.
func NewInjector(n int, cfg Config) *Injector {
	return &Injector{
		cfg:      cfg,
		n:        n,
		down:     make([]cause, n),
		crashRNG: make([]*rand.Rand, n),
		senseRNG: make([]*rand.Rand, n),
		links:    make(map[int64]*geChain),
		lastSlot: -1,
	}
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// per-entity sub-seeds from the master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (in *Injector) subRNG(tag, id uint64) *rand.Rand {
	s := splitmix64(uint64(in.cfg.Seed) ^ splitmix64(tag^splitmix64(id)))
	return rand.New(rand.NewSource(int64(s)))
}

const (
	tagCrash = 0xC7A5
	tagSense = 0x5E45
	tagLink  = 0x119C
)

// N returns the node count the injector was built for.
func (in *Injector) N() int { return in.n }

// Active reports whether the injector can perturb the run; see
// Config.Active.
func (in *Injector) Active() bool { return in.cfg.Active() }

// Alive reports whether node i is up.
func (in *Injector) Alive(i int) bool { return in.down[i] == upNode }

// AliveMask appends the current aliveness of every node to dst (reusing
// its capacity) and returns it.
func (in *Injector) AliveMask(dst []bool) []bool {
	dst = dst[:0]
	for i := range in.down {
		dst = append(dst, in.down[i] == upNode)
	}
	return dst
}

// AliveCount returns the number of alive nodes.
func (in *Injector) AliveCount() int {
	c := 0
	for i := range in.down {
		if in.down[i] == upNode {
			c++
		}
	}
	return c
}

// Deaths returns the cumulative number of node deaths (recoveries do not
// subtract).
func (in *Injector) Deaths() int { return in.deaths }

func (in *Injector) kill(i int, why cause) {
	if in.down[i] != upNode {
		return
	}
	in.down[i] = why
	in.deaths++
	if in.met != nil {
		in.met.deaths.Inc()
		switch why {
		case crashRandom:
			in.met.crashes.Inc()
		case crashScheduled:
			in.met.scheduled.Inc()
		}
	}
}

// revive marks a down node up again on a scheduled Up event.
func (in *Injector) revive(i int) {
	in.down[i] = upNode
	if in.met != nil {
		in.met.recoveries.Inc()
	}
}

// BeginSlot advances the fault state to the given slot: scheduled events
// fire, then alive nodes draw their crash chance. It is the only place
// aliveness changes. Slots must be presented in increasing order; repeats
// are no-ops. All draws happen in node-ID order from per-node streams, so
// the outcome for node i is independent of every other node's history.
func (in *Injector) BeginSlot(slot int) {
	if slot <= in.lastSlot {
		return
	}
	in.lastSlot = slot
	if in.met != nil {
		defer func() { in.met.alive.Set(float64(in.AliveCount())) }()
	}
	for _, ev := range in.cfg.Schedule {
		if ev.Slot != slot || ev.Node < 0 || ev.Node >= in.n {
			continue
		}
		if ev.Up {
			if in.down[ev.Node] != upNode {
				in.revive(ev.Node)
			}
		} else {
			in.kill(ev.Node, crashScheduled)
		}
	}
	if in.cfg.CrashProb <= 0 {
		return
	}
	for i := range in.down {
		if in.down[i] == upNode && in.nodeRNG(&in.crashRNG, tagCrash, i).Float64() < in.cfg.CrashProb {
			in.kill(i, crashRandom)
		}
	}
}

func (in *Injector) nodeRNG(pool *[]*rand.Rand, tag uint64, i int) *rand.Rand {
	if (*pool)[i] == nil {
		(*pool)[i] = in.subRNG(tag, uint64(i))
	}
	return (*pool)[i]
}

// DropLink reports whether the delivery from node `from` to node `to` is
// lost in the given slot. The undirected link owns one Gilbert–Elliott
// chain that is advanced once per elapsed slot (bursts span time even
// while the link is out of range); each direction's delivery then draws
// its own loss against the shared channel state. Callers must query links
// in a deterministic order within a slot.
func (in *Injector) DropLink(slot, from, to int) bool {
	if !in.cfg.Link.Enabled() {
		return false
	}
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	key := int64(lo)*int64(in.n) + int64(hi)
	ch := in.links[key]
	if ch == nil {
		ch = &geChain{rng: in.subRNG(tagLink, uint64(key)), slot: slot - 1}
		in.links[key] = ch
	}
	for ; ch.slot < slot; ch.slot++ {
		if ch.bad {
			if ch.rng.Float64() < in.cfg.Link.PBadToGood {
				ch.bad = false
			}
		} else if ch.rng.Float64() < in.cfg.Link.PGoodToBad {
			ch.bad = true
		}
	}
	loss := in.cfg.Link.LossGood
	if ch.bad {
		loss = in.cfg.Link.LossBad
	}
	dropped := loss > 0 && ch.rng.Float64() < loss
	if dropped && in.met != nil {
		in.met.linkDrops.Inc()
	}
	return dropped
}

// CorruptSamples applies sensing faults to node i's sensed readings:
// dropped samples disappear, outlier samples gain an additive Gaussian
// spike. The input slice is not modified; with sensing faults disabled it
// is returned as-is with no RNG draws.
func (in *Injector) CorruptSamples(i int, samples []Sample) []Sample {
	if in.cfg.SenseDropProb <= 0 && in.cfg.SenseOutlierProb <= 0 {
		return samples
	}
	rng := in.nodeRNG(&in.senseRNG, tagSense, i)
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if in.cfg.SenseDropProb > 0 && rng.Float64() < in.cfg.SenseDropProb {
			if in.met != nil {
				in.met.senseDrops.Inc()
			}
			continue
		}
		if in.cfg.SenseOutlierProb > 0 && rng.Float64() < in.cfg.SenseOutlierProb {
			s.Z += rng.NormFloat64() * in.cfg.SenseOutlierStd
			if in.met != nil {
				in.met.outliers.Inc()
			}
		}
		out = append(out, s)
	}
	return out
}

// String summarizes the injector state, for logs and error paths.
func (in *Injector) String() string {
	return fmt.Sprintf("fault.Injector{n=%d alive=%d deaths=%d}", in.n, in.AliveCount(), in.deaths)
}
