package repro

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickstartFlow exercises the public API end to end, mirroring the
// README quickstart: build an environment, place nodes with FRA, evaluate
// δ, then run the mobile swarm.
func TestQuickstartFlow(t *testing.T) {
	forest := NewForest(DefaultForestConfig())
	ref := forest.Reference()

	opts := DefaultFRAOptions(40)
	opts.GridN = 25
	p, err := FRA(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 40 {
		t.Fatalf("nodes = %d", len(p.Nodes))
	}
	ev, err := Evaluate(ref, p, opts.Rc, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Connected {
		t.Error("FRA placement not connected")
	}

	w, err := NewWorld(forest, GridLayout(forest.Bounds(), 64), DefaultWorldOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	if w.Time() != 1 {
		t.Errorf("time = %v", w.Time())
	}
}

func TestFacadeHelpers(t *testing.T) {
	if V2(1, 2).X != 1 {
		t.Error("V2 broken")
	}
	if Square(10).Area() != 100 {
		t.Error("Square broken")
	}
	f := Peaks(Square(100))
	if Delta(f, f, 20) != 0 {
		t.Error("Delta(f,f) != 0")
	}
	samples := []Sample{
		{Pos: V2(0, 0), Z: 1}, {Pos: V2(100, 0), Z: 1},
		{Pos: V2(100, 100), Z: 1}, {Pos: V2(0, 100), Z: 1},
	}
	tin, err := Reconstruct(Square(100), samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := tin.Eval(V2(50, 50)); got != 1 {
		t.Errorf("reconstruction = %v", got)
	}
	d, err := DeltaSamples(Peaks(Square(100)), samples, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("DeltaSamples = %v", d)
	}
}

func TestFacadeRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderASCII(&buf, Peaks(Square(100)), 20, 10); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")) != 10 {
		t.Error("render shape wrong")
	}
	buf.Reset()
	if err := RenderTopology(&buf, Square(100), []Vec2{V2(50, 50)}, 10, 20, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "o") {
		t.Error("node glyph missing")
	}
}

func TestFacadeBaselines(t *testing.T) {
	if got := len(RandomPlacement(Square(100), 7, 1).Nodes); got != 7 {
		t.Errorf("random nodes = %d", got)
	}
	if got := len(UniformPlacement(Square(100), 9).Nodes); got != 9 {
		t.Errorf("uniform nodes = %d", got)
	}
	f := Peaks(Square(100))
	opts := DefaultCWDOptions(8)
	opts.GridN = 20
	opts.Iterations = 5
	p, err := CWDPlacement(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 8 {
		t.Errorf("cwd nodes = %d", len(p.Nodes))
	}
	if _, err := ScoreCWD(f, p.Nodes, 30, 5); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNetworkHelpers(t *testing.T) {
	stations := []Vec2{V2(10, 10), V2(18, 10), V2(26, 10)}
	tree, err := BuildCollectionTree(stations, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth[2] != 2 {
		t.Errorf("depth = %d, want 2", tree.Depth[2])
	}
	sink, stats, err := CollectionCost(stations, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sink != 1 {
		t.Errorf("best sink = %d, want the middle node", sink)
	}
	if stats.TotalTx != 2 {
		t.Errorf("TotalTx = %d, want 2", stats.TotalTx)
	}
	rob := AnalyzeRobustness(stations, 10)
	if rob.Biconnected {
		t.Error("chain reported biconnected")
	}
	if len(rob.ArticulationPoints) != 1 {
		t.Errorf("articulation points = %v", rob.ArticulationPoints)
	}
}

func TestFacadeEnvironmentExtensions(t *testing.T) {
	terr := NewTerrain(Square(100), 5, 0.5, 1)
	if terr.Bounds() != Square(100) {
		t.Errorf("terrain bounds = %v", terr.Bounds())
	}
	ridge := Ridge(Square(100), V2(0, 50), V2(100, 50), 3, 5)
	if ridge.Eval(V2(50, 50)) <= ridge.Eval(V2(50, 80)) {
		t.Error("ridge not peaked on its line")
	}
	plume := &Plume{Region: Square(100), Sources: []PlumeSource{
		{Origin: V2(50, 50), Mass: 10, Sigma0: 3},
	}}
	if plume.EvalAt(V2(50, 50), 0) <= 0 {
		t.Error("plume peak not positive")
	}
}

func TestFacadeTraceSampling(t *testing.T) {
	forest := NewForest(DefaultForestConfig())
	opts := DefaultWorldOptions()
	opts.Trace = TraceOptions{Enabled: true}
	w, err := NewWorld(forest, GridLayout(forest.Bounds(), 36), opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.DeltaTrace(20); err != nil {
		t.Fatal(err)
	}
}
