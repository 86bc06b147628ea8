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
// keeps, across the accepted-node stream, a union-find over the nodes, the
// sorted component roots, a minimum spanning tree T of the component graph
// (C − 1 edges, each a root pair and the distance between the two
// components' closest members) and the relay bill over T, so L(G, rc) is
// O(1).
//
// The what-if query L(G ∪ {p}, rc) makes one pass over the committed
// nodes, recording per root the distance of its closest member to p and
// whether some member is unit-disk adjacent to p (Dist² ≤ rc², the
// predicate of NewUnitDisk); the adjacent roots form the set S that p
// would absorb. Kruskal then runs over at most 2C − 1 edges: the edges of
// T with S collapsed into p's component, plus one star edge from p to each
// root outside S. That is an MST of the new component graph: every
// component link missing from T is the longest on a cycle through T, and
// collapsing S keeps that cycle. Query cost is O(k·α + C log C), and a
// Commit of the point just queried reuses the query's pass.
//
// Relay counts follow the model of RelaysNeeded: a link of length d needs
// ⌈d/rc⌉ − 1 relays. Every minimum spanning tree has the same multiset of
// edge weights and that count never falls as d grows, so the bill does not
// depend on which tree ties select, and it equals RelaysNeeded exactly.
//
// The oracle keeps query scratch, so it is not safe for concurrent use.
type RelayOracle struct {
	rc    float64
	pts   []geom.Vec2
	uf    *UnionFind
	roots []int      // component roots, ascending
	tree  []treeEdge // T, ascending by distance
	bill  int        // Σ ⌈d/rc⌉ − 1 over tree

	// Scratch of the last query: the pass over the committed nodes for
	// point scanP at len(pts) == scanN, the Kruskal candidates and the
	// edges Kruskal accepted.
	scan  []rootScan // indexed by element id, len(pts)+1 long
	scanP geom.Vec2
	scanN int
	cands []treeEdge
	next  []treeEdge
}

// treeEdge is one component-graph link between roots a and b.
type treeEdge struct {
	a, b int
	dist float64
}

// rootScan is the per-root state of one query. near and adj are valid at
// the current roots after a pass; parent is the Kruskal forest link, valid
// at the roots and at the query point's own id.
type rootScan struct {
	near   float64 // distance from the query point to the closest member
	adj    bool    // some member is unit-disk adjacent to the query point
	parent int
}

// NewRelayOracle returns an empty oracle for communication radius rc.
func NewRelayOracle(rc float64) *RelayOracle {
	return &RelayOracle{rc: rc, uf: NewUnionFind(0), scan: make([]rootScan, 1)}
}

// N returns the number of committed positions.
func (o *RelayOracle) N() int { return len(o.pts) }

// Relays returns L(G, rc) over the committed positions — the number of
// relays needed to stitch the current components into one network. It
// equals RelaysNeeded over the same positions.
func (o *RelayOracle) Relays() int { return o.bill }

// RelaysWith returns L(G ∪ {p}, rc) — the relay bill if candidate p were
// added — without changing the committed state. This is FRA's
// affordability check; on a warmed oracle it allocates nothing.
func (o *RelayOracle) RelaysWith(p geom.Vec2) int { return o.query(p) }

// Commit adds p to the committed set, merging it into every component
// within rc and replacing T by the tree of the query for p. When p is the
// point last passed to RelaysWith, as in FRA, its pass over the committed
// nodes is reused.
func (o *RelayOracle) Commit(p geom.Vec2) {
	o.bill = o.query(p)
	id := o.uf.Add()
	o.pts = append(o.pts, p)
	o.scan = append(o.scan, rootScan{})

	// Roots outside S stay roots; S and p become one component.
	keep := o.roots[:0]
	for _, r := range o.roots {
		if o.scan[r].adj {
			o.uf.Union(id, r)
		} else {
			keep = append(keep, r)
		}
	}
	merged := o.uf.Find(id)
	i, _ := slices.BinarySearch(keep, merged)
	o.roots = slices.Insert(keep, i, merged)

	// The query named p's component by id, which need not be its root.
	for j := range o.next {
		e := &o.next[j]
		if e.a == id {
			e.a = merged
		}
		if e.b == id {
			e.b = merged
		}
	}
	o.tree, o.next = o.next, o.tree
}

// query returns L(G ∪ {p}, rc) and leaves the MST it found in o.next, with
// p's component named by the id p would take, len(o.pts).
func (o *RelayOracle) query(p geom.Vec2) int {
	pid := len(o.pts)
	if o.scanN != pid || o.scanP != p {
		o.scanP, o.scanN = p, pid
		for _, r := range o.roots {
			o.scan[r] = rootScan{near: math.Inf(1)}
		}
		rc2 := o.rc * o.rc
		for i, q := range o.pts {
			s := &o.scan[o.uf.Find(i)]
			if o.rc >= 0 && q.Dist2(p) <= rc2 {
				s.adj = true
			}
			if d := q.Dist(p); d < s.near {
				s.near = d
			}
		}
	}

	// Candidates: T with S collapsed into p's component, and p's star.
	o.cands = o.cands[:0]
	o.scan[pid].parent = pid
	for _, r := range o.roots {
		o.scan[r].parent = r
		if !o.scan[r].adj {
			o.cands = append(o.cands, treeEdge{a: pid, b: r, dist: o.scan[r].near})
		}
	}
	for _, e := range o.tree {
		if a, b := o.collapse(e.a, pid), o.collapse(e.b, pid); a != b {
			o.cands = append(o.cands, treeEdge{a: a, b: b, dist: e.dist})
		}
	}
	slices.SortFunc(o.cands, func(x, y treeEdge) int { return cmp.Compare(x.dist, y.dist) })

	o.next = o.next[:0]
	relays := 0
	for _, e := range o.cands {
		ra, rb := o.find(e.a), o.find(e.b)
		if ra == rb {
			continue
		}
		o.scan[ra].parent = rb
		o.next = append(o.next, e)
		relays += int(math.Ceil(e.dist/o.rc)) - 1
	}
	return relays
}

// collapse names root r by pid when the query point absorbs it.
func (o *RelayOracle) collapse(r, pid int) int {
	if o.scan[r].adj {
		return pid
	}
	return r
}

// find returns the representative of x in the query's Kruskal forest,
// halving paths as it goes.
func (o *RelayOracle) find(x int) int {
	for o.scan[x].parent != x {
		o.scan[x].parent = o.scan[o.scan[x].parent].parent
		x = o.scan[x].parent
	}
	return x
}
