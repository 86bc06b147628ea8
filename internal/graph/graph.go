// Package graph provides the communication-network substrate: unit-disk
// graphs over node positions, connectivity queries (paper Definition 3.1's
// "G(V,E) is connected" constraint), connected components, minimum
// spanning trees and the relay-placement planner behind FRA's foresight
// step — L(G, r), the least number of extra nodes that make G connected,
// and P(G, i), positions for those nodes (paper Table 1 notation).
package graph

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/spatial"
	"repro/internal/view"
)

// Graph is an undirected graph over indexed vertices with optional plane
// positions. The zero value is an empty graph.
type Graph struct {
	pos []geom.Vec2
	adj [][]int
}

// unitDiskIndexThreshold is the node count above which edge enumeration
// switches from the quadratic scan to the spatial hash. It is a speed
// choice only: both paths apply the same membership predicate.
const unitDiskIndexThreshold = 256

// NewUnitDisk builds the unit-disk graph over positions: an edge joins
// every pair at distance ≤ rc (paper Section 3.2: "We provide edges when
// the distance between any two vertices is no more than Rc"), tested as
// Dist² ≤ rc² — the spatial index's native predicate — on every path.
// Large point sets are bucketed through a spatial hash so construction
// stays near-linear in the number of edges. A negative rc yields no edges.
func NewUnitDisk(positions []geom.Vec2, rc float64) *Graph {
	g := &Graph{
		pos: append([]geom.Vec2(nil), positions...),
		adj: make([][]int, len(positions)),
	}
	if rc < 0 {
		return g
	}
	if len(positions) > unitDiskIndexThreshold && rc > 0 {
		if idx, err := spatial.NewIndex(positions, rc); err == nil {
			idx.Pairs(rc, func(i, j int) {
				g.adj[i] = append(g.adj[i], j)
				g.adj[j] = append(g.adj[j], i)
			})
			for i := range g.adj {
				sort.Ints(g.adj[i])
			}
			return g
		}
	}
	rc2 := rc * rc
	for i := 0; i < len(positions); i++ {
		for j := i + 1; j < len(positions); j++ {
			if positions[i].Dist2(positions[j]) <= rc2 {
				g.adj[i] = append(g.adj[i], j)
				g.adj[j] = append(g.adj[j], i)
			}
		}
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// Pos returns the position of vertex i.
func (g *Graph) Pos(i int) geom.Vec2 { return g.pos[i] }

// Neighbors returns the adjacency list of vertex i (shared slice; callers
// must not mutate it).
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// Degree returns the degree of vertex i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// Connected reports whether the graph is connected (the empty graph and
// single vertices count as connected).
func (g *Graph) Connected() bool { return g.NumComponents() <= 1 }

// NumComponents returns the number of connected components — C(G) in the
// FRA pseudocode.
func (g *Graph) NumComponents() int {
	_, n := g.ComponentsIn(view.Alive{})
	return n
}

// Components returns, for each vertex, its component label in [0, n), plus
// the number of components n.
func (g *Graph) Components() (labels []int, n int) {
	return g.ComponentsIn(view.Alive{})
}

// ComponentsIn returns the component labels of the subgraph induced by the
// alive vertices of v: dead vertices get label -1 and contribute no edges.
// Only the view's mask is consulted (the graph carries its own positions);
// the zero view — nil mask — is the classic all-alive query. n is the
// number of components among alive vertices. This is the connectivity
// query of a network with failed nodes — dead hardware neither routes nor
// counts.
func (g *Graph) ComponentsIn(v view.Alive) (labels []int, n int) {
	labels = make([]int, g.N())
	for i := range labels {
		labels[i] = -1
	}
	var queue []int
	for s := range labels {
		if labels[s] != -1 || !v.Up(s) {
			continue
		}
		labels[s] = n
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[u] {
				if v.Up(w) && labels[w] == -1 {
					labels[w] = n
					queue = append(queue, w)
				}
			}
		}
		n++
	}
	return labels, n
}

// ConnectedIn reports whether the subgraph induced by the alive vertices
// of v is connected (an empty or single-vertex induced subgraph counts as
// connected). The zero view means Connected.
func (g *Graph) ConnectedIn(v view.Alive) bool {
	_, n := g.ComponentsIn(v)
	return n <= 1
}

// Edge is a weighted undirected edge.
type Edge struct {
	// U and V are the endpoint vertex indices.
	U, V int
	// W is the edge weight (Euclidean length for geometric graphs).
	W float64
}

// UnionFind is a disjoint-set structure with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []int
	sets   int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int, n), rank: make([]int, n), sets: n}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b, reporting whether a merge happened.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.sets--
	return true
}

// Add appends a fresh singleton set and returns its element index —
// growing the structure incrementally, as FRA does when it accepts one
// node per refinement step.
func (u *UnionFind) Add() int {
	i := len(u.parent)
	u.parent = append(u.parent, i)
	u.rank = append(u.rank, 0)
	u.sets++
	return i
}

// NumSets returns the current number of disjoint sets.
func (u *UnionFind) NumSets() int { return u.sets }

// pairKey is a canonical (lo < hi) component-label pair.
type pairKey struct{ lo, hi int }

// componentLink is one inter-component stitching edge: the closest member
// pair of two components, where the distance between components is the
// minimum pairwise distance between their member positions. i and j are
// the member indices realizing the link (i < j).
type componentLink struct {
	a, b geom.Vec2 // closest points of the two linked components
	dist float64
	i, j int // member indices realizing the link, for deterministic ties
}

// betterCand orders candidate links for the same component pair by
// (dist, i, j) — exactly the order in which the quadratic scan encounters
// strict minima — so the scan and sweep paths select identical links no
// matter in which order pairs are enumerated.
func betterCand(l, cur componentLink) bool {
	if l.dist != cur.dist {
		return l.dist < cur.dist
	}
	if l.i != cur.i {
		return l.i < cur.i
	}
	return l.j < cur.j
}

// componentLinks returns the MST stitching links between the components of
// positions (labels from Components, numComp component count). rcHint, when
// positive, seeds the radius of the spatial sweep — components are farther
// than the communication radius apart by construction, so 2·rc is a good
// first ring. Small inputs use the quadratic scan; large ones the
// spatial.Index.Pairs sweep. Both paths pick bit-identical links.
func componentLinks(positions []geom.Vec2, labels []int, numComp int, rcHint float64) []componentLink {
	if numComp < 2 {
		return nil
	}
	var best map[pairKey]componentLink
	if len(positions) > unitDiskIndexThreshold && rcHint > 0 {
		best = componentLinkSweep(positions, labels, numComp, 2*rcHint)
	}
	if best == nil {
		best = componentLinkScan(positions, labels)
	}
	// Kruskal over component pairs, cheapest links first.
	type candidate struct {
		key  pairKey
		link componentLink
	}
	cands := make([]candidate, 0, len(best))
	for k, l := range best {
		cands = append(cands, candidate{key: k, link: l})
	}
	// Tie-break equal link lengths by component pair so the chosen MST —
	// and hence the relay positions — never depends on map iteration
	// order. Regular lattice placements make exact ties common.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].link.dist != cands[j].link.dist {
			return cands[i].link.dist < cands[j].link.dist
		}
		if cands[i].key.lo != cands[j].key.lo {
			return cands[i].key.lo < cands[j].key.lo
		}
		return cands[i].key.hi < cands[j].key.hi
	})
	uf := NewUnionFind(numComp)
	var out []componentLink
	for _, c := range cands {
		if uf.Union(c.key.lo, c.key.hi) {
			out = append(out, c.link)
		}
	}
	return out
}

// componentLinkScan computes the per-component-pair closest links by the
// O(n²) pairwise scan — fine at the paper's k ≤ a few hundred, and the
// reference the sweep path is benchmarked and tested against.
func componentLinkScan(positions []geom.Vec2, labels []int) map[pairKey]componentLink {
	best := make(map[pairKey]componentLink)
	for i := 0; i < len(positions); i++ {
		for j := i + 1; j < len(positions); j++ {
			ci, cj := labels[i], labels[j]
			if ci == cj {
				continue
			}
			if ci > cj {
				ci, cj = cj, ci
			}
			k := pairKey{ci, cj}
			cand := componentLink{a: positions[i], b: positions[j], dist: positions[i].Dist(positions[j]), i: i, j: j}
			if cur, ok := best[k]; !ok || betterCand(cand, cur) {
				best[k] = cand
			}
		}
	}
	return best
}

// componentLinkSweep computes the same per-pair closest links through
// expanding spatial.Index.Pairs rings: enumerate all cross-component point
// pairs within radius r, and stop as soon as the collected links join
// every component — by the cut property, a minimax (and hence any MST)
// stitching uses only links no longer than the radius that first connects
// the component graph, so the candidate set is complete once connectivity
// is reached. The radius doubles from r0 until connected or until the ring
// covers the whole bounding box (at which point every pair has been
// enumerated and the result equals the scan's). Returns nil when an index
// cannot be built, signalling the caller to fall back to the scan.
func componentLinkSweep(positions []geom.Vec2, labels []int, numComp int, r0 float64) map[pairKey]componentLink {
	idx, err := spatial.NewIndex(positions, r0)
	if err != nil {
		return nil
	}
	bb, _ := geom.BoundingBox(positions)
	diag := math.Hypot(bb.Width(), bb.Height())
	for r := r0; ; r *= 2 {
		best := make(map[pairKey]componentLink)
		// Query marginally wide, filter on the exact distance: the ring
		// boundary then never decides by a rounding bit which candidates
		// this round sees, keeping the sweep's links identical to the
		// scan's even for pairs at exactly radius r.
		idx.Pairs(r*(1+1e-9), func(i, j int) {
			ci, cj := labels[i], labels[j]
			if ci == cj {
				return
			}
			d := positions[i].Dist(positions[j])
			if d > r {
				return
			}
			if ci > cj {
				ci, cj = cj, ci
			}
			k := pairKey{ci, cj}
			cand := componentLink{a: positions[i], b: positions[j], dist: d, i: i, j: j}
			if cur, ok := best[k]; !ok || betterCand(cand, cur) {
				best[k] = cand
			}
		})
		if r > diag {
			return best // every pair enumerated; nothing left to find
		}
		uf := NewUnionFind(numComp)
		for k := range best {
			uf.Union(k.lo, k.hi)
		}
		if uf.NumSets() == 1 {
			return best
		}
	}
}

// RelaysNeeded returns L(G, rc): the minimum number of additional relay
// nodes, each with communication radius rc, required to join the
// components of the unit-disk graph over positions into one connected
// network, when relays are placed evenly along the MST links between the
// closest component pairs. A link of length d needs ⌈d/rc⌉ − 1 relays.
func RelaysNeeded(positions []geom.Vec2, rc float64) int {
	return len(RelayPositions(positions, rc))
}

// RelayPositions returns P(G, ·): concrete positions for the relays
// counted by RelaysNeeded, spaced evenly along each MST component link so
// consecutive hops are ≤ rc. A radius that is not positive, NaN included,
// yields nil.
func RelayPositions(positions []geom.Vec2, rc float64) []geom.Vec2 {
	if !(rc > 0) || len(positions) == 0 {
		return nil
	}
	g := NewUnitDisk(positions, rc)
	labels, numComp := g.Components()
	if numComp <= 1 {
		return nil
	}
	var relays []geom.Vec2
	for _, link := range componentLinks(positions, labels, numComp, rc) {
		hops := int(math.Ceil(link.dist / rc))
		for s := 1; s < hops; s++ {
			relays = append(relays, link.a.Lerp(link.b, float64(s)/float64(hops)))
		}
	}
	return relays
}
