package graph

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// RelayOracle answers FRA's connectivity-affordability queries
// incrementally. The naive check rebuilds the O(k²) unit-disk graph and
// its component links for every candidate position; the oracle instead
// maintains, across the accepted-node stream, a union-find over the nodes
// plus the minimum pairwise distance between every pair of connected
// components. With that state, both L(G, rc) and the what-if query
// L(G ∪ {p}, rc) cost O(k + C² log C) where C is the (typically tiny)
// number of components — near-linear in k instead of quadratic.
//
// Relay counts follow the same model as RelaysNeeded: components are
// stitched along minimum-spanning-tree links between closest component
// pairs, and a link of length d needs ⌈d/rc⌉ − 1 relays. Because every
// minimum spanning tree of a graph has the same multiset of edge weights,
// the count is well-defined even under distance ties, and the oracle's
// answers match RelaysNeeded exactly.
type RelayOracle struct {
	rc  float64
	pts []geom.Vec2
	uf  *UnionFind
	// best holds, for every unordered pair of component roots {lo, hi},
	// the closest member pair and its distance.
	best map[pairKey]componentLink
}

// pairKey is a canonical (lo < hi) component-root pair.
type pairKey struct{ lo, hi int }

func rootPair(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// NewRelayOracle returns an empty oracle for communication radius rc.
func NewRelayOracle(rc float64) *RelayOracle {
	return &RelayOracle{
		rc:   rc,
		uf:   NewUnionFind(0),
		best: make(map[pairKey]componentLink),
	}
}

// N returns the number of committed positions.
func (o *RelayOracle) N() int { return len(o.pts) }

// betterLink orders links by (dist, endpoints) so merges never depend on
// map iteration order.
func betterLink(l, cur componentLink) bool {
	if l.dist != cur.dist {
		return l.dist < cur.dist
	}
	if l.a != cur.a {
		return l.a.X < cur.a.X || (l.a.X == cur.a.X && l.a.Y < cur.a.Y)
	}
	return l.b.X < cur.b.X || (l.b.X == cur.b.X && l.b.Y < cur.b.Y)
}

// closestPerRoot returns, for each current component root, the closest
// committed member to p (link endpoints are (member, p)), and the set of
// roots with a member unit-disk adjacent to p (Dist² ≤ rc², the predicate
// of NewUnitDisk).
func (o *RelayOracle) closestPerRoot(p geom.Vec2) (minD map[int]componentLink, adj map[int]bool) {
	minD = make(map[int]componentLink)
	adj = make(map[int]bool)
	rc2 := o.rc * o.rc
	for i, q := range o.pts {
		r := o.uf.Find(i)
		if o.rc >= 0 && q.Dist2(p) <= rc2 {
			adj[r] = true
		}
		d := q.Dist(p)
		if cur, ok := minD[r]; !ok || d < cur.dist {
			minD[r] = componentLink{a: q, b: p, dist: d}
		}
	}
	return minD, adj
}

// Commit adds p to the committed set, merging it into every component
// within rc and updating the inter-component closest-pair table. O(k + C²).
func (o *RelayOracle) Commit(p geom.Vec2) {
	minD, inS := o.closestPerRoot(p)
	id := o.uf.Add()
	o.pts = append(o.pts, p)

	// Merge p's component with every component it can reach directly, in
	// sorted root order so the union-by-rank outcome is deterministic.
	var mergeRoots []int
	for r := range inS {
		mergeRoots = append(mergeRoots, r)
	}
	inS[id] = true
	slices.Sort(mergeRoots)
	for _, r := range mergeRoots {
		o.uf.Union(id, r)
	}
	merged := o.uf.Find(id)

	// Fold the closest-pair table: entries between two swallowed
	// components disappear, entries with one swallowed endpoint re-key to
	// the merged root, and p itself offers new candidate pairs.
	rebuilt := make(map[pairKey]componentLink, len(o.best))
	fold := func(key pairKey, l componentLink) {
		if cur, ok := rebuilt[key]; !ok || betterLink(l, cur) {
			rebuilt[key] = l
		}
	}
	for key, l := range o.best {
		aIn, bIn := inS[key.lo], inS[key.hi]
		switch {
		case aIn && bIn:
		case aIn:
			fold(rootPair(merged, key.hi), l)
		case bIn:
			fold(rootPair(merged, key.lo), l)
		default:
			fold(key, l)
		}
	}
	for r, l := range minD {
		if !inS[r] {
			fold(rootPair(merged, r), l)
		}
	}
	o.best = rebuilt
}

// compEdge is one inter-component candidate link for the stitching MST.
// Roots are union-find element indices; -1 denotes the hypothetical
// component of an uncommitted query point.
type compEdge struct {
	a, b int
	dist float64
}

// relaySum runs Kruskal over the candidate links of nComp components and
// totals ⌈d/rc⌉ − 1 relays along the accepted tree links.
func (o *RelayOracle) relaySum(edges []compEdge, compIdx map[int]int, nComp int) int {
	if nComp <= 1 {
		return 0
	}
	// (dist, a, b) is unique per edge, so the order is total.
	slices.SortFunc(edges, func(x, y compEdge) int {
		if c := cmp.Compare(x.dist, y.dist); c != 0 {
			return c
		}
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	uf := NewUnionFind(nComp)
	relays := 0
	for _, e := range edges {
		if uf.Union(compIdx[e.a], compIdx[e.b]) {
			relays += int(math.Ceil(e.dist/o.rc)) - 1
		}
	}
	return relays
}

// roots returns the sorted distinct component roots of the committed set.
func (o *RelayOracle) roots() []int {
	seen := make(map[int]bool)
	var rs []int
	for i := range o.pts {
		r := o.uf.Find(i)
		if !seen[r] {
			seen[r] = true
			rs = append(rs, r)
		}
	}
	slices.Sort(rs)
	return rs
}

// Relays returns L(G, rc) over the committed positions — the number of
// relays needed to stitch the current components into one network. It
// equals RelaysNeeded over the same positions.
func (o *RelayOracle) Relays() int {
	rs := o.roots()
	if len(rs) <= 1 {
		return 0
	}
	compIdx := make(map[int]int, len(rs))
	for i, r := range rs {
		compIdx[r] = i
	}
	edges := make([]compEdge, 0, len(o.best))
	for key, l := range o.best {
		edges = append(edges, compEdge{a: key.lo, b: key.hi, dist: l.dist})
	}
	return o.relaySum(edges, compIdx, len(rs))
}

// RelaysWith returns L(G ∪ {p}, rc) — the relay bill if candidate p were
// added — without mutating the oracle. This is FRA's affordability check,
// answered in O(k + C² log C) instead of rebuilding the graph.
func (o *RelayOracle) RelaysWith(p geom.Vec2) int {
	// Components the candidate would absorb directly: inS.
	minD, inS := o.closestPerRoot(p)

	rs := o.roots()
	surviving := rs[:0:0]
	for _, r := range rs {
		if !inS[r] {
			surviving = append(surviving, r)
		}
	}

	// Index map: surviving roots plus the candidate's merged component
	// (key -1).
	compIdx := make(map[int]int, len(surviving)+1)
	for i, r := range surviving {
		compIdx[r] = i
	}
	compIdx[-1] = len(surviving)
	nComp := len(surviving) + 1

	// Distance from the merged component to each survivor: the candidate's
	// own distance, improvable by any swallowed component's stored links.
	toMerged := make(map[int]float64, len(surviving))
	for _, r := range surviving {
		toMerged[r] = minD[r].dist
	}
	edges := make([]compEdge, 0, len(o.best)+len(surviving))
	for key, l := range o.best {
		aIn, bIn := inS[key.lo], inS[key.hi]
		switch {
		case aIn && bIn:
		case aIn:
			if l.dist < toMerged[key.hi] {
				toMerged[key.hi] = l.dist
			}
		case bIn:
			if l.dist < toMerged[key.lo] {
				toMerged[key.lo] = l.dist
			}
		default:
			edges = append(edges, compEdge{a: key.lo, b: key.hi, dist: l.dist})
		}
	}
	for _, r := range surviving {
		edges = append(edges, compEdge{a: -1, b: r, dist: toMerged[r]})
	}
	return o.relaySum(edges, compIdx, nComp)
}
