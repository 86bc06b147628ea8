// Package repro is a from-scratch Go reproduction of "Optimizing the
// Spatio-Temporal Distribution of Cyber-Physical Systems for Environment
// Abstraction" (Kong, Jiang, Wu — ICDCS 2010).
//
// The paper asks where k CPS sensing nodes should sit — and, for mobile
// nodes, how they should move — so that the scalar environment field over
// a region can be rebuilt as accurately as possible from only k samples,
// under the constraint that the nodes form a connected network. This
// package is the public facade over the full implementation:
//
//   - FRA solves the stationary (OSD) problem against a historical
//     reference surface: greedy Delaunay-refinement placement with a
//     foresight step that reserves budget for connectivity relays.
//   - NewWorld / World runs the mobile (OSTD) problem: every node executes
//     the distributed CMA controller (virtual forces over locally fitted
//     Gaussian curvature) while the LCM keeps the network connected.
//   - Delta is the paper's quality metric δ: the integrated absolute
//     difference between the true surface and the Delaunay reconstruction
//     from the node samples.
//   - NewForest generates the synthetic GreenOrbs-style forest-light
//     environment used throughout the evaluation; Peaks is the Matlab
//     peaks surface of the paper's Fig. 3.
//
// The underlying packages (internal/...) implement every substrate from
// scratch on the standard library: incremental Delaunay triangulation,
// dense least squares, unit-disk graphs with MST relay planning, curvature
// estimation and a deterministic staged simulator. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-versus-measured results.
package repro

import (
	"io"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobile"
	"repro/internal/surface"
	"repro/internal/view"
)

// Geometry and field primitives.
type (
	// Vec2 is a position on the region plane.
	Vec2 = geom.Vec2
	// Rect is an axis-aligned region of interest.
	Rect = geom.Rect
	// Field is a static scalar environment z = f(x, y).
	Field = field.Field
	// DynField is a time-varying environment z = f(x, y, t).
	DynField = field.DynField
	// Sample is one sensed data point.
	Sample = field.Sample
	// Forest is the synthetic GreenOrbs-style forest-light environment.
	Forest = field.Forest
	// ForestConfig parameterizes the synthetic forest.
	ForestConfig = field.ForestConfig
	// TIN is a Delaunay-interpolated reconstruction of sampled data.
	TIN = surface.TIN
)

// Placement (OSD) API.
type (
	// Placement is a node distribution produced by FRA or a baseline.
	Placement = core.Placement
	// FRAOptions configures the Foresighted Refinement Algorithm.
	FRAOptions = core.FRAOptions
	// Evaluation scores a placement (δ, connectivity).
	Evaluation = core.Evaluation
	// CWDOptions configures curvature-weighted distribution computation.
	CWDOptions = core.CWDOptions
	// CWDScore reports how well nodes realize the CWD pattern.
	CWDScore = core.CWDScore
)

// Mobile (OSTD) API.
type (
	// MobileConfig holds the per-node CMA parameters.
	MobileConfig = mobile.Config
	// World is the deterministic mobile-node simulator.
	World = engine.Engine
	// WorldOptions configures a World.
	WorldOptions = engine.Options
	// StepStats summarizes one simulation slot.
	StepStats = engine.StepStats
)

// Experiment harness API.
type (
	// DeltaVsTimeRow is one point of the Fig. 10 series.
	DeltaVsTimeRow = eval.DeltaVsTimeRow
	// CWDRow is one side of the Fig. 3 comparison.
	CWDRow = eval.CWDRow
	// NetworkRow quantifies collection cost and robustness of a placement.
	NetworkRow = eval.NetworkRow
	// MobileRow compares mobile-control strategies (CMA vs centralized).
	MobileRow = eval.MobileRow
)

// Network and environment extensions.
type (
	// TraceOptions configures movement-path sampling (the paper's
	// future-work extension).
	TraceOptions = engine.TraceOptions
	// CollectionTree is a shortest-path data-collection tree to a sink.
	CollectionTree = collect.Tree
	// CollectionStats is the per-epoch convergecast cost.
	CollectionStats = collect.Stats
	// Robustness summarizes network failure tolerance.
	Robustness = graph.Robustness
	// Terrain is a fractal height field (rugged-environment model).
	Terrain = field.Terrain
	// Plume is an advection–diffusion pollutant field built from
	// drifting, splitting, decaying Gaussian releases.
	Plume = field.Plume
	// PlumeSource is one release feeding a Plume.
	PlumeSource = field.PlumeSource
)

// Fault-injection and graceful-degradation API (DESIGN.md §7).
type (
	// FaultConfig parameterizes the deterministic fault injector; the zero
	// value injects nothing.
	FaultConfig = fault.Config
	// FaultInjector drives seeded node crashes, scheduled kills and
	// revivals, link loss and sensing faults inside a World
	// (WorldOptions.Faults).
	FaultInjector = fault.Injector
	// FaultEvent is one deterministic kill/revive schedule entry.
	FaultEvent = fault.Event
	// GilbertElliott is the two-state bursty link-loss channel model.
	GilbertElliott = fault.GilbertElliott
	// PartialTreeError carries the reachable part of a collection tree
	// when some vertices cannot reach the sink.
	PartialTreeError = collect.PartialError
	// DegradationRow is one point of the δ-versus-failure-rate sweep.
	DegradationRow = eval.DegradationRow
)

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return geom.V2(x, y) }

// Square returns the side×side region with its corner at the origin.
func Square(side float64) Rect { return geom.Square(side) }

// NewForest builds the deterministic synthetic forest-light environment.
func NewForest(cfg ForestConfig) *Forest { return field.NewForest(cfg) }

// DefaultForestConfig returns the evaluation's standard forest:
// a 100×100 m² region with 12 canopy gaps.
func DefaultForestConfig() ForestConfig { return field.DefaultForestConfig() }

// Peaks returns the Matlab peaks surface mapped onto region (Fig. 3).
func Peaks(region Rect) Field { return field.Peaks(region) }

// FRA runs the Foresighted Refinement Algorithm for the OSD problem.
func FRA(f Field, opts FRAOptions) (Placement, error) { return core.FRA(f, opts) }

// DefaultFRAOptions returns the paper's Section 6 OSD settings for k
// nodes: Rc = 10 on a one-meter local-error lattice.
func DefaultFRAOptions(k int) FRAOptions { return core.DefaultFRAOptions(k) }

// RandomPlacement returns the random-deployment baseline of Fig. 7.
func RandomPlacement(region Rect, k int, seed int64) Placement {
	return core.RandomPlacement(region, k, seed)
}

// UniformPlacement returns the uniform grid baseline of Fig. 3.
func UniformPlacement(region Rect, k int) Placement {
	return core.UniformPlacement(region, k)
}

// CWDPlacement computes a curvature-weighted distribution with global
// information (the target pattern of Section 5.1).
func CWDPlacement(f Field, opts CWDOptions) (Placement, error) {
	return core.CWDPlacement(f, opts)
}

// DefaultCWDOptions mirrors the paper's Fig. 3 setting for k nodes.
func DefaultCWDOptions(k int) CWDOptions { return core.DefaultCWDOptions(k) }

// ScoreCWD evaluates the paper's CWD requirements for a node set.
func ScoreCWD(f Field, nodes []Vec2, rc, rs float64) (CWDScore, error) {
	return core.ScoreCWD(f, nodes, rc, rs)
}

// Evaluate scores a placement against a reference field: δ on an
// n-division lattice plus connectivity statistics at radius rc.
func Evaluate(f Field, p Placement, rc float64, n int) (Evaluation, error) {
	return core.Evaluate(f, p, rc, n)
}

// Delta computes the paper's δ between a reference and an approximation.
func Delta(f, g Field, n int) float64 { return surface.Delta(f, g, n) }

// DeltaSamples computes δ between f and the Delaunay reconstruction of
// the samples.
func DeltaSamples(f Field, samples []Sample, n int) (float64, error) {
	return surface.DeltaSamples(f, samples, n)
}

// Reconstruct builds the Delaunay-interpolated surface from samples.
func Reconstruct(region Rect, samples []Sample) (*TIN, error) {
	return surface.FromSamples(region, samples)
}

// GridLayout returns k positions on a centered grid — the connected
// initial state of the mobile experiments.
func GridLayout(region Rect, k int) []Vec2 { return field.GridLayout(region, k) }

// DefaultMobileConfig returns the paper's mobile-node settings: Rc = 10 m,
// Rs = 5 m, β = 2, v = 1 m/min.
func DefaultMobileConfig() MobileConfig { return mobile.DefaultConfig() }

// NewWorld creates the deterministic mobile-node simulator.
func NewWorld(dyn DynField, positions []Vec2, opts WorldOptions) (*World, error) {
	return engine.New(dyn, positions, opts)
}

// DefaultWorldOptions returns the paper's Section 6 OSTD settings.
func DefaultWorldOptions() WorldOptions { return engine.DefaultOptions() }

// DeltaVsTime regenerates the Fig. 10 data series from a world.
func DeltaVsTime(w *World, slots, deltaN int) ([]DeltaVsTimeRow, error) {
	return eval.DeltaVsTime(w, slots, deltaN)
}

// CompareCWD regenerates the Fig. 3 uniform-versus-CWD comparison.
func CompareCWD(f Field, opts CWDOptions, deltaN int) ([]CWDRow, error) {
	return eval.CompareCWD(f, opts, deltaN)
}

// RelaysNeeded returns L(G, rc): the minimum number of relay nodes that
// FRA's foresight step budgets to join the components of the unit-disk
// graph over positions.
func RelaysNeeded(positions []Vec2, rc float64) int {
	return graph.RelaysNeeded(positions, rc)
}

// RelayPositions returns P(G, ·): concrete relay positions along the MST
// links between the closest component pairs, spaced ≤ rc.
func RelayPositions(positions []Vec2, rc float64) []Vec2 {
	return graph.RelayPositions(positions, rc)
}

// Connected reports whether the unit-disk graph over positions at radius
// rc is connected — the paper's G(V,E) constraint.
func Connected(positions []Vec2, rc float64) bool {
	return graph.NewUnitDisk(positions, rc).Connected()
}

// BuildCollectionTree computes the minimum-length routing tree from every
// node to the sink over the unit-disk graph at radius rc.
func BuildCollectionTree(positions []Vec2, rc float64, sink int) (*CollectionTree, error) {
	return collect.BuildTree(graph.NewUnitDisk(positions, rc), sink)
}

// BuildCollectionTreeMasked is BuildCollectionTree over the subgraph of
// vertices with down[v] false: failed vertices neither route nor count as
// unreached. A nil mask includes every vertex.
func BuildCollectionTreeMasked(positions []Vec2, rc float64, sink int, down []bool) (*CollectionTree, error) {
	return collect.BuildTreeIn(graph.NewUnitDisk(positions, rc), sink, view.FromDown(positions, down))
}

// RepairCollectionTree re-routes a collection tree around failed vertices
// (down[v] true) over the current unit-disk graph, re-parenting orphaned
// subtrees onto surviving attachment points. It returns the repaired tree,
// the alive vertices left unreachable, and the re-parented count; the
// input tree is not modified.
func RepairCollectionTree(t *CollectionTree, positions []Vec2, rc float64, down []bool) (*CollectionTree, []int, int, error) {
	return t.Repair(graph.NewUnitDisk(positions, rc), view.FromDown(positions, down))
}

// CollectionCost computes the per-epoch convergecast cost of the network
// from its energy-optimal sink.
func CollectionCost(positions []Vec2, rc float64) (sink int, stats CollectionStats, err error) {
	return collect.BestSink(graph.NewUnitDisk(positions, rc))
}

// AnalyzeRobustness reports the failure tolerance of the unit-disk network
// over positions: articulation points, bridges and 2-connectivity.
func AnalyzeRobustness(positions []Vec2, rc float64) Robustness {
	return graph.NewUnitDisk(positions, rc).AnalyzeRobustness()
}

// NetworkVsK runs the collection-cost and robustness experiment over FRA
// placements for each k at radius rc, placing on a gridN lattice and
// scoring δ on a deltaN lattice.
func NetworkVsK(f Field, ks []int, rc float64, gridN, deltaN int) ([]NetworkRow, error) {
	return eval.NetworkVsK(f, ks, rc, gridN, deltaN, nil)
}

// CompareMobile runs the distributed CMA against the centralized
// replanning strawman over the same dynamic field — the measurable form
// of the paper's Section 5 centralization critique.
func CompareMobile(dyn DynField, k, slots, deltaN int) ([]MobileRow, error) {
	return eval.CompareMobile(dyn, k, slots, deltaN)
}

// NewFaultInjector builds a deterministic fault injector for n nodes;
// attach it via WorldOptions.Faults.
func NewFaultInjector(n int, cfg FaultConfig) *FaultInjector {
	return fault.NewInjector(n, cfg)
}

// FaultProfile scales every fault channel from a single run-level failure
// rate; rate 0 yields an inert config (bit-identical to fault-free).
func FaultProfile(rate float64, slots int, seed int64) FaultConfig {
	return fault.Profile(rate, slots, seed)
}

// DegradationSweep measures δ and connectivity uptime versus failure rate
// under injected faults with collection-tree repair (DESIGN.md §7).
func DegradationSweep(dyn DynField, k, slots, deltaN int, rates []float64, seed int64) ([]DegradationRow, error) {
	return eval.DegradationSweep(dyn, engine.DefaultOptions(), k, slots, deltaN, rates, seed)
}

// NewTerrain generates a deterministic fractal terrain over region.
func NewTerrain(region Rect, levels int, roughness float64, seed int64) *Terrain {
	return field.NewTerrain(region, levels, roughness, seed)
}

// Ridge returns a field with a sharp ridge between a and b.
func Ridge(region Rect, a, b Vec2, height, width float64) Field {
	return field.Ridge(region, a, b, height, width)
}

// RenderASCII writes an ASCII heatmap of f — the stand-in for the paper's
// surface plots.
func RenderASCII(w io.Writer, f Field, cols, rows int) error {
	return surface.RenderASCII(w, f, cols, rows)
}

// RenderTopology writes an ASCII map of node positions and Rc-edges — the
// stand-in for the paper's topology birdviews.
func RenderTopology(w io.Writer, region Rect, nodes []Vec2, rc float64, cols, rows int) error {
	return surface.RenderTopologyASCII(w, region, nodes, rc, cols, rows)
}
