package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/view"
)

func line(n int, spacing float64) []geom.Vec2 {
	out := make([]geom.Vec2, n)
	for i := range out {
		out[i] = geom.V2(float64(i)*spacing, 0)
	}
	return out
}

func TestNewUnitDisk(t *testing.T) {
	pos := []geom.Vec2{geom.V2(0, 0), geom.V2(5, 0), geom.V2(20, 0)}
	g := NewUnitDisk(pos, 10)
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Errorf("degrees = %d,%d", g.Degree(0), g.Degree(2))
	}
	if g.Pos(1) != geom.V2(5, 0) {
		t.Errorf("Pos = %v", g.Pos(1))
	}
	if nb := g.Neighbors(0); len(nb) != 1 || nb[0] != 1 {
		t.Errorf("Neighbors(0) = %v", nb)
	}
}

func TestUnitDiskEdgeAtExactRadius(t *testing.T) {
	g := NewUnitDisk([]geom.Vec2{geom.V2(0, 0), geom.V2(10, 0)}, 10)
	if g.NumEdges() != 1 {
		t.Error("edge at exactly Rc must exist (paper: distance no more than Rc)")
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		pos  []geom.Vec2
		rc   float64
		want bool
	}{
		{"empty", nil, 10, true},
		{"single", line(1, 0), 10, true},
		{"chain", line(5, 8), 10, true},
		{"broken-chain", line(5, 12), 10, false},
		{"two-clusters", append(line(3, 5), geom.V2(50, 50), geom.V2(52, 50)), 10, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := NewUnitDisk(tc.pos, tc.rc).Connected(); got != tc.want {
				t.Errorf("Connected = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestComponents(t *testing.T) {
	pos := append(line(3, 5), geom.V2(50, 0), geom.V2(53, 0))
	g := NewUnitDisk(pos, 10)
	labels, n := g.Components()
	if n != 2 {
		t.Fatalf("components = %d", n)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("chain split across components")
	}
	if labels[3] != labels[4] {
		t.Error("cluster split across components")
	}
	if labels[0] == labels[3] {
		t.Error("separate clusters share a label")
	}
	if g.NumComponents() != 2 {
		t.Error("NumComponents mismatch")
	}
}

func TestBFSFrom(t *testing.T) {
	g := NewUnitDisk(line(5, 10), 10) // path graph 0-1-2-3-4
	dist := g.BFSFrom(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	g2 := NewUnitDisk(append(line(2, 5), geom.V2(100, 100)), 10)
	if d := g2.BFSFrom(0); d[2] != -1 {
		t.Errorf("unreachable dist = %d, want -1", d[2])
	}
}

func TestBFSFromPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewUnitDisk(line(2, 1), 10).BFSFrom(5)
}

func TestMSTComplete(t *testing.T) {
	// Square of side 10: MST weight = 30 (three sides).
	pos := []geom.Vec2{geom.V2(0, 0), geom.V2(10, 0), geom.V2(10, 10), geom.V2(0, 10)}
	edges := NewUnitDisk(pos, 1).MSTComplete()
	if len(edges) != 3 {
		t.Fatalf("MST edges = %d, want 3", len(edges))
	}
	if w := TotalWeight(edges); math.Abs(w-30) > 1e-9 {
		t.Errorf("MST weight = %v, want 30", w)
	}
}

func TestMSTCompleteTrivial(t *testing.T) {
	if edges := NewUnitDisk(nil, 1).MSTComplete(); edges != nil {
		t.Errorf("empty MST = %v", edges)
	}
	if edges := NewUnitDisk(line(1, 0), 1).MSTComplete(); edges != nil {
		t.Errorf("single-vertex MST = %v", edges)
	}
}

func TestMSTSpansAllVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		pos := make([]geom.Vec2, n)
		for i := range pos {
			pos[i] = geom.V2(rng.Float64()*100, rng.Float64()*100)
		}
		edges := NewUnitDisk(pos, 1).MSTComplete()
		if len(edges) != n-1 {
			t.Fatalf("MST has %d edges for %d vertices", len(edges), n)
		}
		uf := NewUnionFind(n)
		for _, e := range edges {
			uf.Union(e.U, e.V)
		}
		if uf.NumSets() != 1 {
			t.Fatal("MST does not span")
		}
	}
}

func TestMSTWeightMinimalProperty(t *testing.T) {
	// Compare Prim against brute force on tiny instances.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 4
		pos := make([]geom.Vec2, n)
		for i := range pos {
			pos[i] = geom.V2(rng.Float64()*10, rng.Float64()*10)
		}
		prim := TotalWeight(NewUnitDisk(pos, 1).MSTComplete())
		best := bruteForceMST(pos)
		if math.Abs(prim-best) > 1e-9 {
			t.Fatalf("prim %v vs brute force %v", prim, best)
		}
	}
}

// bruteForceMST enumerates all spanning trees of K4 via edge subsets.
func bruteForceMST(pos []geom.Vec2) float64 {
	n := len(pos)
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{i, j, pos[i].Dist(pos[j])})
		}
	}
	best := math.Inf(1)
	m := len(edges)
	for mask := 0; mask < 1<<m; mask++ {
		if popcount(mask) != n-1 {
			continue
		}
		uf := NewUnionFind(n)
		w := 0.0
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				uf.Union(edges[b].u, edges[b].v)
				w += edges[b].w
			}
		}
		if uf.NumSets() == 1 && w < best {
			best = w
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.NumSets() != 5 {
		t.Fatalf("initial sets = %d", uf.NumSets())
	}
	if !uf.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union reported merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.NumSets() != 2 {
		t.Errorf("sets = %d, want 2", uf.NumSets())
	}
	if uf.Find(1) != uf.Find(2) {
		t.Error("1 and 2 should be joined")
	}
	if uf.Find(0) == uf.Find(4) {
		t.Error("4 should be separate")
	}
}

func TestUnionFindSetCountProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const n = 10
		uf := NewUnionFind(n)
		merges := 0
		for _, op := range ops {
			a, b := int(op)%n, int(op/16)%n
			if uf.Union(a, b) {
				merges++
			}
		}
		return uf.NumSets() == n-merges
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelaysNeededConnectedGraph(t *testing.T) {
	if got := RelaysNeeded(line(5, 8), 10); got != 0 {
		t.Errorf("connected graph needs %d relays, want 0", got)
	}
	if got := RelaysNeeded(nil, 10); got != 0 {
		t.Errorf("empty graph needs %d relays", got)
	}
	if got := RelaysNeeded(line(3, 1), 0); got != 0 {
		t.Errorf("rc=0 should yield no relays, got %d", got)
	}
	// Radii that are not positive, NaN included, plan nothing.
	far := []geom.Vec2{geom.V2(0, 0), geom.V2(50, 50), geom.V2(90, 10)}
	for _, rc := range []float64{math.NaN(), -3, math.Inf(-1)} {
		if got := RelayPositions(far, rc); got != nil {
			t.Errorf("rc=%v: RelayPositions = %v, want nil", rc, got)
		}
	}
}

func TestRelayPositionsTwoClusters(t *testing.T) {
	// Two nodes 25 apart with Rc=10 need ⌈25/10⌉-1 = 2 relays.
	pos := []geom.Vec2{geom.V2(0, 0), geom.V2(25, 0)}
	relays := RelayPositions(pos, 10)
	if len(relays) != 2 {
		t.Fatalf("relays = %d, want 2", len(relays))
	}
	all := append(append([]geom.Vec2{}, pos...), relays...)
	if !NewUnitDisk(all, 10).Connected() {
		t.Error("relays do not connect the network")
	}
}

func TestRelayPositionsAlwaysConnect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		pos := make([]geom.Vec2, n)
		for i := range pos {
			pos[i] = geom.V2(rng.Float64()*200, rng.Float64()*200)
		}
		rc := 8 + rng.Float64()*15
		relays := RelayPositions(pos, rc)
		all := append(append([]geom.Vec2{}, pos...), relays...)
		if !NewUnitDisk(all, rc).Connected() {
			t.Fatalf("trial %d: %d relays fail to connect %d nodes at rc=%v",
				trial, len(relays), n, rc)
		}
	}
}

func TestRelaysNeededMatchesPositions(t *testing.T) {
	pos := []geom.Vec2{geom.V2(0, 0), geom.V2(40, 0), geom.V2(40, 40)}
	if RelaysNeeded(pos, 10) != len(RelayPositions(pos, 10)) {
		t.Error("count and positions disagree")
	}
}

func TestRelayHopSpacing(t *testing.T) {
	// Every consecutive hop along a relay chain must be within rc.
	pos := []geom.Vec2{geom.V2(0, 0), geom.V2(95, 0)}
	rc := 10.0
	relays := RelayPositions(pos, rc)
	chain := append([]geom.Vec2{pos[0]}, relays...)
	chain = append(chain, pos[1])
	for i := 1; i < len(chain); i++ {
		if d := chain[i-1].Dist(chain[i]); d > rc+1e-9 {
			t.Fatalf("hop %d length %v exceeds rc", i, d)
		}
	}
	// Minimality: ⌈95/10⌉-1 = 9 relays.
	if len(relays) != 9 {
		t.Errorf("relays = %d, want 9", len(relays))
	}
}

func TestComponentsIn(t *testing.T) {
	// A 5-chain at spacing 1, rc 1: connected; masking out the middle
	// vertex splits it in two; masking the ends leaves the middle triple.
	pts := []geom.Vec2{geom.V2(0, 0), geom.V2(1, 0), geom.V2(2, 0), geom.V2(3, 0), geom.V2(4, 0)}
	g := NewUnitDisk(pts, 1)
	if !g.ConnectedIn(view.Alive{}) {
		t.Fatal("zero view should match Connected")
	}
	in := func(mask []bool) view.Alive { return view.Alive{Pos: pts, Mask: mask} }
	alive := []bool{true, true, false, true, true}
	labels, n := g.ComponentsIn(in(alive))
	if n != 2 {
		t.Fatalf("components with dead middle = %d, want 2", n)
	}
	if labels[2] != -1 {
		t.Errorf("dead vertex label = %d, want -1", labels[2])
	}
	if labels[0] != labels[1] || labels[3] != labels[4] || labels[0] == labels[3] {
		t.Errorf("labels = %v, want {a,a,-1,b,b}", labels)
	}
	if g.ConnectedIn(in(alive)) {
		t.Error("split chain reported connected")
	}
	if !g.ConnectedIn(in([]bool{false, true, true, true, false})) {
		t.Error("middle triple should be connected")
	}
	if !g.ConnectedIn(in([]bool{false, false, false, true, false})) {
		t.Error("single alive vertex should count as connected")
	}
	if !g.ConnectedIn(in(make([]bool, 5))) {
		t.Error("empty alive set should count as connected")
	}
}

// BFSFrom returns the hop distance from src to every vertex (-1 when
// unreachable).
func (g *Graph) BFSFrom(src int) []int {
	if src < 0 || src >= g.N() {
		panic(fmt.Sprintf("graph: BFS source %d out of range [0,%d)", src, g.N()))
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// MSTComplete computes the minimum spanning tree of the complete Euclidean
// graph over the vertex positions using Prim's algorithm ("this foresight
// step is carried out by prim algorithm", paper Section 4.2). It returns
// the tree edges; an empty or single-vertex graph yields no edges.
func (g *Graph) MSTComplete() []Edge {
	n := g.N()
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	bestW := make([]float64, n)
	bestTo := make([]int, n)
	for i := range bestW {
		bestW[i] = math.Inf(1)
		bestTo[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestW[j] = g.pos[0].Dist(g.pos[j])
		bestTo[j] = 0
	}
	edges := make([]Edge, 0, n-1)
	for len(edges) < n-1 {
		pick, pw := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && bestW[j] < pw {
				pick, pw = j, bestW[j]
			}
		}
		if pick == -1 {
			break
		}
		inTree[pick] = true
		edges = append(edges, Edge{U: bestTo[pick], V: pick, W: pw})
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d := g.pos[pick].Dist(g.pos[j]); d < bestW[j] {
					bestW[j] = d
					bestTo[j] = pick
				}
			}
		}
	}
	return edges
}

// TotalWeight sums the weights of a set of edges.
func TotalWeight(edges []Edge) float64 {
	s := 0.0
	for _, e := range edges {
		s += e.W
	}
	return s
}
