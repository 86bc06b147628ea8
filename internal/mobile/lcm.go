package mobile

import (
	"repro/internal/geom"
	"repro/internal/view"
)

// LCMScratch holds the reusable edge buffer of the in-place LCM resolver.
// The zero value is ready to use; a scratch is not safe for concurrent use.
type LCMScratch struct {
	edges [][2]int
}

// Resolve applies the Local Connectivity Mechanism to a set of tentative
// next positions. v is the pre-move alive-view of the swarm:
// v.Pos are the (always feasible) pre-move positions and dead nodes —
// v.Up(i) false — neither announce, absorb corrections, nor bridge, so
// their links place no constraints on the survivors. The all-alive view is
// the classic fault-free LCM.
//
// Every edge of the pre-move unit-disk graph (described by neighborInfos,
// indexed by node) between alive endpoints must either survive at radius
// rc or be replaced by a current two-hop path through a former common
// neighbor (the paper's Fig. 4: n4 may stay because n3 bridges; n5 must
// move with n1). Over-stretched critical links are resolved by symmetric
// constraint projection — each pulls both endpoints toward each other by
// half the excess, the cooperative reading of the paper's "moves with"
// rule that, unlike a one-sided drag, converges when a node has several
// binding links. Stale neighbor entries can describe links that no longer
// exist — any critical edge that is already over-stretched at the pre-move
// positions is skipped rather than allowed to drag the swarm toward a
// phantom neighbor. When projection fails to converge the movement is
// reverted wholesale to v.Pos and follows is returned as -1; otherwise
// follows counts the projection operations performed.
//
// It works in place: next is both input and output, and the critical-edge
// list is accumulated in the scratch's reusable buffer, so no result slice
// is allocated.
func (s *LCMScratch) Resolve(region geom.Rect, rc float64, v view.Alive, next []geom.Vec2, neighborInfos [][]NeighborInfo) (follows int) {
	oldPos := v.Pos
	resolved := next
	oldEdges := s.edges[:0]
	for i := range neighborInfos {
		if !v.Up(i) {
			continue
		}
		for _, nb := range neighborInfos[i] {
			if nb.ID <= i || !v.Up(nb.ID) {
				continue
			}
			if oldPos[i].Dist(oldPos[nb.ID]) > rc {
				continue // stale entry: the link was already gone pre-move
			}
			oldEdges = append(oldEdges, [2]int{i, nb.ID})
		}
	}
	s.edges = oldEdges
	limit := rc * (1 - 1e-4) // project slightly inside Rc for FP headroom
	bridged := func(i, j int) bool {
		for _, nb := range neighborInfos[i] {
			b := nb.ID
			if b == j || !v.Up(b) {
				continue
			}
			if resolved[b].Dist(resolved[i]) <= rc && resolved[b].Dist(resolved[j]) <= rc {
				// b must be a former neighbor of both endpoints for the
				// LCM exchange to reach it.
				for _, nb2 := range neighborInfos[j] {
					if nb2.ID == b {
						return true
					}
				}
			}
		}
		return false
	}
	const maxRounds = 200
	converged := false
	for round := 0; round < maxRounds; round++ {
		violated := false
		for _, e := range oldEdges {
			i, j := e[0], e[1]
			d := resolved[i].Dist(resolved[j])
			if d <= rc || bridged(i, j) {
				continue
			}
			violated = true
			corr := (d - limit) / 2
			dir := resolved[j].Sub(resolved[i]).Scale(1 / d)
			resolved[i] = region.ClampPoint(resolved[i].Add(dir.Scale(corr)))
			resolved[j] = region.ClampPoint(resolved[j].Sub(dir.Scale(corr)))
			follows++
		}
		if !violated {
			converged = true
			break
		}
	}
	if !converged {
		// Final check: accept only if every critical old edge holds.
		converged = true
		for _, e := range oldEdges {
			if resolved[e[0]].Dist(resolved[e[1]]) > rc && !bridged(e[0], e[1]) {
				converged = false
				break
			}
		}
		if !converged {
			copy(resolved, oldPos)
			return -1
		}
	}
	return follows
}
