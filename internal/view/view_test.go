package view

import (
	"testing"

	"repro/internal/geom"
)

func TestZeroViewIsAllAlive(t *testing.T) {
	var v Alive
	if !v.AllUp() || v.N() != 0 || v.Count() != 0 {
		t.Fatalf("zero view: AllUp=%v N=%d Count=%d", v.AllUp(), v.N(), v.Count())
	}
	if !v.Up(0) || !v.Up(99) {
		t.Fatal("zero view must report every index alive")
	}
}

func TestAllAndFromDown(t *testing.T) {
	pos := []geom.Vec2{geom.V2(0, 0), geom.V2(1, 0), geom.V2(2, 0)}
	v := Alive{Pos: pos}
	if !v.AllUp() || v.N() != 3 || v.Count() != 3 {
		t.Fatalf("nil mask: AllUp=%v N=%d Count=%d", v.AllUp(), v.N(), v.Count())
	}
	if fd := FromDown(pos, nil); !fd.AllUp() {
		t.Fatal("FromDown(nil) must be the all-alive view")
	}
	fd := FromDown(pos, []bool{false, true, false})
	if fd.AllUp() {
		t.Fatal("FromDown with a death must not be all-alive")
	}
	if !fd.Up(0) || fd.Up(1) || !fd.Up(2) {
		t.Fatalf("FromDown polarity wrong: %v", fd.Mask)
	}
	if fd.Count() != 2 {
		t.Fatalf("Count = %d, want 2", fd.Count())
	}
}
