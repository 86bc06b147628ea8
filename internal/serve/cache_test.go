package serve

import (
	"testing"

	"repro/internal/obs"
)

// TestServeFIFO pins the cache both the responses and the references
// share: oldest-first eviction at the cap, a negative cap that keeps
// nothing, re-adds that keep the first value, and a resize that only
// touches the entry it names.
func TestServeFIFO(t *testing.T) {
	reg := obs.NewRegistry()
	hits, misses := reg.Counter("hits"), reg.Counter("misses")
	one, two, three := new(int), new(int), new(int)

	c := newFIFO[*int](2, hits, misses, reg.Gauge("size"))
	c.add("a", one, 1)
	c.add("b", two, 1)
	c.add("c", three, 1) // evicts a
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived an add at the cap")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("entry %s evicted, want only the oldest gone", k)
		}
	}
	if got := c.add("b", one, 1); got != two {
		t.Error("re-adding a present key did not return the first value")
	}
	if v, _ := c.get("b"); v != two {
		t.Error("re-adding a present key replaced its value")
	}
	if h, m := hits.Value(), misses.Value(); h != 3 || m != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", h, m)
	}

	// A late resize by the owner of an evicted value leaves the entry
	// that replaced it alone; an entry grown past the cap alone is
	// dropped without evicting the others.
	size := reg.Gauge("ref_size")
	r := newFIFO[*int](10, nil, nil, size)
	r.add("x", one, 0)
	r.add("y", two, 0)
	r.resize("x", one, 6)
	r.resize("y", two, 6) // evicts x
	r.add("x", three, 0)
	r.resize("x", one, 8)
	if v, _ := r.get("x"); v != three || r.total != 6 {
		t.Errorf("late resize of a replaced entry: total %d, replacement kept %v; want 6 and true", r.total, v == three)
	}
	r.resize("x", three, 4)
	if r.total != 10 || size.Value() != 10 {
		t.Errorf("resize of the current entry: total %d gauge %g, want 10", r.total, size.Value())
	}
	r.resize("x", three, 11)
	if _, ok := r.get("y"); !ok || r.total != 6 || size.Value() != 6 {
		t.Errorf("oversized resize: y kept %v, total %d gauge %g, want true and 6", ok, r.total, size.Value())
	}

	off := newFIFO[*int](-1, reg.Counter("off_hits"), reg.Counter("off_misses"), nil)
	off.add("a", one, 1)
	for i := 0; i < 3; i++ {
		if _, ok := off.get("a"); ok {
			t.Fatal("a negative cap kept an entry")
		}
	}
	if h, m := reg.Counter("off_hits").Value(), reg.Counter("off_misses").Value(); h != 0 || m != 3 {
		t.Errorf("negative cap hits/misses = %d/%d, want 0/3", h, m)
	}
}
