package mobile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/view"
)

func TestLCMScenarioFig4(t *testing.T) {
	// Reconstruction of the paper's Fig. 4: n1 moves; n3 keeps a direct
	// link, n4 is bridged through n3, n5 is stranded and must follow, n2
	// was never a neighbor.
	const rc = 10.0
	n3 := geom.V2(55, 53)
	n4 := geom.V2(58, 58)
	n5 := geom.V2(42, 44)
	target := geom.V2(52, 56) // n1's destination

	ann := MoveAnnouncement{
		Mover:  1,
		Target: target,
		Neighbors: []NeighborInfo{
			{ID: 3, Pos: n3},
			{ID: 4, Pos: n4},
			{ID: 5, Pos: n5},
		},
	}

	// n3: still within rc of the destination — stays.
	if _, follow := LCMFollow(n3, ann, 3, rc); follow {
		t.Error("n3 should keep its direct link and stay")
	}
	// n4: destination is 8.2 away (within rc) — stays via direct link.
	if _, follow := LCMFollow(n4, ann, 4, rc); follow {
		t.Error("n4 should stay")
	}
	// n5: destination is 15.6 away, and no other neighbor bridges — must
	// follow to exactly rc from the destination.
	got, follow := LCMFollow(n5, ann, 5, rc)
	if !follow {
		t.Fatal("n5 should follow the mover")
	}
	if d := got.Dist(target); d > rc || d < rc*(1-1e-5) {
		t.Errorf("follow distance = %v, want just inside rc=%v", d, rc)
	}
}

func TestLCMBridgeThroughThirdNode(t *testing.T) {
	const rc = 10.0
	target := geom.V2(70, 50)
	me := geom.V2(55, 50)     // 15 from target: direct link broken
	bridge := geom.V2(62, 50) // 7 from me, 8 from target: bridges
	ann := MoveAnnouncement{
		Mover:  1,
		Target: target,
		Neighbors: []NeighborInfo{
			{ID: 2, Pos: me},
			{ID: 3, Pos: bridge},
		},
	}
	if _, follow := LCMFollow(me, ann, 2, rc); follow {
		t.Error("bridged node should stay in place")
	}
	// Without the bridge the same node must follow.
	ann.Neighbors = []NeighborInfo{{ID: 2, Pos: me}}
	if _, follow := LCMFollow(me, ann, 2, rc); !follow {
		t.Error("unbridged node should follow")
	}
}

func TestLCMIgnoresOwnAnnouncement(t *testing.T) {
	ann := MoveAnnouncement{Mover: 2, Target: geom.V2(99, 99)}
	if _, follow := LCMFollow(geom.V2(0, 0), ann, 2, 10); follow {
		t.Error("node followed its own announcement")
	}
}

func TestLCMBridgeMustReachBothEnds(t *testing.T) {
	// A neighbor close to me but far from the destination is not a bridge.
	const rc = 10.0
	target := geom.V2(80, 50)
	me := geom.V2(55, 50)
	nearMeOnly := geom.V2(50, 50)
	ann := MoveAnnouncement{
		Mover:  1,
		Target: target,
		Neighbors: []NeighborInfo{
			{ID: 2, Pos: me},
			{ID: 3, Pos: nearMeOnly},
		},
	}
	if _, follow := LCMFollow(me, ann, 2, rc); !follow {
		t.Error("half-bridge accepted: neighbor cannot reach destination")
	}
}

func TestLCMCoincidentWithTarget(t *testing.T) {
	// Degenerate: node already sits exactly at the announced target.
	ann := MoveAnnouncement{Mover: 1, Target: geom.V2(50, 50)}
	if _, follow := LCMFollow(geom.V2(50, 50), ann, 2, 10); follow {
		t.Error("coincident node should not follow")
	}
}

// MoveAnnouncement is the tell(nd, N) broadcast of Table 2 line 17: a
// moving node announces its destination and its current single-hop
// neighbor list so each neighbor can decide whether it must follow.
type MoveAnnouncement struct {
	// Mover identifies the announcing node.
	Mover int
	// Target is the mover's destination nd.
	Target geom.Vec2
	// Neighbors are the mover's single-hop neighbors before the move.
	Neighbors []NeighborInfo
}

// LCMFollow implements the Local Connectivity Mechanism check of Table 2
// lines 19–21 for a node at pos receiving ann: if the node can still reach
// the mover's destination either directly or through one of the mover's
// other neighbors (paper Fig. 4: n4 stays because n3 bridges; n5 must
// follow), it stays put; otherwise it returns a follow target at exactly
// Rc from the mover's destination, and true.
func LCMFollow(pos geom.Vec2, ann MoveAnnouncement, selfID int, rc float64) (geom.Vec2, bool) {
	if ann.Mover == selfID {
		return pos, false
	}
	// Direct link survives.
	if pos.Dist(ann.Target) <= rc {
		return pos, false
	}
	// Bridged through another of the mover's neighbors: nj2 must be within
	// rc of both this node and the mover's destination.
	for _, nb := range ann.Neighbors {
		if nb.ID == selfID {
			continue
		}
		if pos.Dist(nb.Pos) <= rc && nb.Pos.Dist(ann.Target) <= rc {
			return pos, false
		}
	}
	// Stranded: move to keep |d(ni, nd2)| = Rc (Table 2 line 21). The
	// follow distance backs off from Rc by a relative margin so that
	// floating-point rounding can never leave the restored link
	// marginally outside communication range.
	dir := pos.Sub(ann.Target)
	if dir.Len() == 0 {
		return pos, false
	}
	const followMargin = 1e-6
	return ann.Target.Add(dir.Normalize().Scale(rc * (1 - followMargin))), true
}

// ResolveLCM is the allocating form of LCMScratch.Resolve: it returns a
// corrected copy of next and leaves next untouched.
func ResolveLCM(region geom.Rect, rc float64, v view.Alive, next []geom.Vec2, neighborInfos [][]NeighborInfo) (resolved []geom.Vec2, follows int) {
	resolved = append([]geom.Vec2(nil), next...)
	var s LCMScratch
	follows = s.Resolve(region, rc, v, resolved, neighborInfos)
	return resolved, follows
}

// TestResolveLCMInPlaceBitIdentical pins LCMScratch.Resolve to ResolveLCM
// across random over-stretched swarms, with the scratch reused between
// calls and dead nodes in the mix.
func TestResolveLCMInPlaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	region := geom.Square(100)
	const rc = 10.0
	var scratch LCMScratch
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(10)
		oldPos := make([]geom.Vec2, n)
		next := make([]geom.Vec2, n)
		for i := range oldPos {
			oldPos[i] = geom.V2(rng.Float64()*40+30, rng.Float64()*40+30)
			// Aggressive tentative moves so plenty of pre-move links break.
			next[i] = region.ClampPoint(oldPos[i].Add(geom.V2(rng.Float64()*12-6, rng.Float64()*12-6)))
		}
		var mask []bool
		if trial%3 == 0 {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = rng.Float64() > 0.2
			}
		}
		infos := make([][]NeighborInfo, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && oldPos[i].Dist(oldPos[j]) <= rc {
					infos[i] = append(infos[i], NeighborInfo{ID: j, Pos: oldPos[j]})
				}
			}
		}
		v := view.Alive{Pos: oldPos, Mask: mask}

		wantPos, wantFollows := ResolveLCM(region, rc, v, next, infos)
		gotPos := append([]geom.Vec2(nil), next...)
		gotFollows := scratch.Resolve(region, rc, v, gotPos, infos)
		if gotFollows != wantFollows {
			t.Fatalf("trial %d: follows %d, want %d", trial, gotFollows, wantFollows)
		}
		for i := range wantPos {
			if math.Float64bits(gotPos[i].X) != math.Float64bits(wantPos[i].X) ||
				math.Float64bits(gotPos[i].Y) != math.Float64bits(wantPos[i].Y) {
				t.Fatalf("trial %d node %d: %v, want %v", trial, i, gotPos[i], wantPos[i])
			}
		}
	}
}
