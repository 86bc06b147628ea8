package serve

import (
	"sync"

	"repro/internal/obs"
)

// refCacheBytes caps the reference lattices one Server retains. A field
// at the default grid_n = delta_n = 100 holds about 160 KB, so the cap
// keeps about two hundred named environments.
const refCacheBytes = 32 << 20

// fifo is a keyed cache capped by the sum of its entries' costs. Eviction
// is FIFO: the workload served (repeated identical queries over shared
// fields) has no recency structure worth an LRU's bookkeeping. A Server
// keeps two:
//
//   - the response cache: rendered place/eval responses keyed by an
//     FNV-1a digest of the request's result-affecting inputs (the sweep
//     cell-digest idiom), each costing 1 against CacheSize. Placement and
//     evaluation are deterministic functions of those inputs, so a hit is
//     byte-identical to a recompute;
//   - the reference cache: the surface.Reference of each named
//     environment, keyed by its env.hash identity, costing its exact
//     Bytes() against refCacheBytes, so a field's lattices are filled
//     once per Server and size rather than once per request.
type fifo[V comparable] struct {
	mu      sync.Mutex
	max     int64 // cap on the summed costs; negative keeps nothing
	entries map[string]*fifoEntry[V]
	order   []string // insertion order, evicted front-first
	total   int64
	hits    *obs.Counter
	misses  *obs.Counter
	size    *obs.Gauge // the summed costs; nil for the response cache
}

type fifoEntry[V comparable] struct {
	v    V
	cost int64
}

func newFIFO[V comparable](max int64, hits, misses *obs.Counter, size *obs.Gauge) *fifo[V] {
	return &fifo[V]{max: max, entries: make(map[string]*fifoEntry[V]), hits: hits, misses: misses, size: size}
}

// get returns the value under key, counting a hit or a miss.
func (c *fifo[V]) get(key string) (V, bool) {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		c.misses.Inc()
		var zero V
		return zero, false
	}
	c.hits.Inc()
	return e.v, true
}

// add stores v under key at cost, evicting the oldest entries until it
// fits, and returns v. When key is already present, as after a
// concurrent miss, it returns the value stored first and changes
// nothing. An entry whose cost alone exceeds the cap is not stored and
// evicts nothing.
func (c *fifo[V]) add(key string, v V, cost int64) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.v
	}
	if cost > c.max {
		return v
	}
	for c.total+cost > c.max {
		c.remove(c.order[0])
	}
	c.entries[key] = &fifoEntry[V]{v: v, cost: cost}
	c.order = append(c.order, key)
	c.total += cost
	c.size.Set(float64(c.total))
	return v
}

// resize re-costs the entry under key, if it still holds v, and evicts
// the oldest entries until the cache fits its cap. An entry whose new
// cost alone exceeds the cap is dropped; one evicted, or evicted and
// replaced, in the meantime is left alone.
func (c *fifo[V]) resize(key string, v V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.v != v {
		return
	}
	if cost > c.max {
		c.remove(key)
	} else {
		c.total += cost - e.cost
		e.cost = cost
		for c.total > c.max {
			c.remove(c.order[0])
		}
	}
	c.size.Set(float64(c.total))
}

// remove drops the entry under key. The caller holds mu.
func (c *fifo[V]) remove(key string) {
	c.total -= c.entries[key].cost
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
