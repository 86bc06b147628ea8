package graph

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// graphFrom builds a Graph directly from an edge list for topology tests.
func graphFrom(n int, edges [][2]int) *Graph {
	g := &Graph{pos: make([]geom.Vec2, n), adj: make([][]int, n)}
	for i := range g.pos {
		g.pos[i] = geom.V2(float64(i), 0)
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	return g
}

func TestArticulationPoints(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  []int
	}{
		{"path", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, []int{1, 2}},
		{"cycle", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil},
		{"star", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}}, []int{0}},
		{"two-triangles-shared-vertex", 5,
			[][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}}, []int{2}},
		{"complete", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, nil},
		{"disconnected-paths", 6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}}, []int{1, 4}},
		{"single-edge", 2, [][2]int{{0, 1}}, nil},
		{"isolated", 3, nil, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := graphFrom(tc.n, tc.edges).ArticulationPoints()
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestArticulationPointsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(20)
		pos := make([]geom.Vec2, n)
		for i := range pos {
			pos[i] = geom.V2(rng.Float64()*50, rng.Float64()*50)
		}
		rc := 10 + rng.Float64()*20
		g := NewUnitDisk(pos, rc)
		got := map[int]bool{}
		for _, v := range g.ArticulationPoints() {
			got[v] = true
		}
		base := g.NumComponents()
		for v := 0; v < n; v++ {
			want := removeVertexComponents(pos, rc, v) > base-boolToInt(isIsolated(g, v))
			if got[v] != want {
				t.Fatalf("trial %d vertex %d: tarjan=%v brute=%v", trial, v, got[v], want)
			}
		}
	}
}

// removeVertexComponents counts components after deleting vertex v,
// ignoring the deleted vertex itself.
func removeVertexComponents(pos []geom.Vec2, rc float64, v int) int {
	var rest []geom.Vec2
	for i, p := range pos {
		if i != v {
			rest = append(rest, p)
		}
	}
	return NewUnitDisk(rest, rc).NumComponents()
}

func isIsolated(g *Graph, v int) bool { return g.Degree(v) == 0 }

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestBridges(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"path", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 3},
		{"cycle", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0},
		{"cycle-plus-tail", 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}}, 2},
		{"empty", 3, nil, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := graphFrom(tc.n, tc.edges).Bridges()
			if len(got) != tc.want {
				t.Errorf("bridges = %v, want %d", got, tc.want)
			}
			for _, e := range got {
				if e.U >= e.V {
					t.Errorf("bridge %v not ordered", e)
				}
			}
		})
	}
}

func TestBiconnected(t *testing.T) {
	if graphFrom(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}).Biconnected() {
		t.Error("path reported biconnected")
	}
	if !graphFrom(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}).Biconnected() {
		t.Error("cycle not reported biconnected")
	}
	if graphFrom(2, [][2]int{{0, 1}}).Biconnected() {
		t.Error("two vertices cannot be biconnected")
	}
	if graphFrom(6, [][2]int{{0, 1}, {1, 2}, {3, 4}}).Biconnected() {
		t.Error("disconnected graph reported biconnected")
	}
}

func TestAnalyzeRobustness(t *testing.T) {
	// A relay chain: connected but fragile everywhere.
	g := NewUnitDisk(line(5, 8), 10)
	r := g.AnalyzeRobustness()
	if !r.Connected {
		t.Error("chain not connected")
	}
	if r.Biconnected {
		t.Error("chain reported biconnected")
	}
	if len(r.ArticulationPoints) != 3 {
		t.Errorf("articulation points = %v, want the 3 interior nodes", r.ArticulationPoints)
	}
	if len(r.Bridges) != 4 {
		t.Errorf("bridges = %d, want 4", len(r.Bridges))
	}
}

func TestUnitDiskLargeUsesIndexEquivalently(t *testing.T) {
	// Above the index threshold, adjacency must be identical to the
	// brute-force Dist² ≤ rc² predicate the quadratic construction uses.
	rng := rand.New(rand.NewSource(3))
	n := unitDiskIndexThreshold + 100
	pos := make([]geom.Vec2, n)
	for i := range pos {
		pos[i] = geom.V2(rng.Float64()*300, rng.Float64()*300)
	}
	rc := 15.0
	g := NewUnitDisk(pos, rc)
	// Brute-force reference adjacency.
	for i := 0; i < n; i++ {
		var want []int
		for j := 0; j < n; j++ {
			if i != j && pos[i].Dist2(pos[j]) <= rc*rc {
				want = append(want, j)
			}
		}
		got := g.Neighbors(i)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("vertex %d adjacency mismatch: %v vs %v", i, got, want)
			}
		}
	}
}
