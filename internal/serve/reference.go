package serve

import (
	"sync"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/surface"
)

// refCacheBytes caps the reference lattices one Server retains. A field
// at the default grid_n = delta_n = 100 holds about 160 KB, so the cap
// keeps about two hundred named environments.
const refCacheBytes = 32 << 20

// refCache keeps the surface.Reference of each named environment, keyed
// by the environment identity hashField writes, so that the lattices of a
// field spec or dynfield slice are filled once per Server and size rather
// than once per request. Inline samples are never cached here. Eviction
// is FIFO, as in the response cache, against a cap in bytes; the count is
// exact: the float64 values the retained references hold, times 8.
type refCache struct {
	mu      sync.Mutex
	max     int64 // refCacheBytes; tests lower it
	entries map[string]*refEntry
	order   []string // insertion order, evicted front-first
	bytes   int64
	hits    *obs.Counter // serve_reference_hits_total
	misses  *obs.Counter // serve_reference_misses_total
	gauge   *obs.Gauge   // serve_reference_bytes
}

// refEntry is one retained reference and its size when last settled.
type refEntry struct {
	ref   *surface.Reference
	bytes int64
}

func newRefCache(hits, misses *obs.Counter, gauge *obs.Gauge) *refCache {
	return &refCache{max: refCacheBytes, entries: make(map[string]*refEntry), hits: hits, misses: misses, gauge: gauge}
}

// get returns the reference cached under key, or wraps a new one around
// build's field and caches it at once, so that concurrent requests share
// its fills. settle counts its bytes once the request that fills it is
// done.
func (c *refCache) get(key string, build func() (field.Field, error)) (*surface.Reference, error) {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e != nil {
		c.hits.Inc()
		return e.ref, nil
	}
	c.misses.Inc()
	f, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.ref, nil // a concurrent miss cached its copy first
	}
	ref := surface.NewReference(f)
	c.entries[key] = &refEntry{ref: ref}
	c.order = append(c.order, key)
	return ref, nil
}

// settle re-counts ref's lattices under key after a request used it (it
// may have filled a new size) and evicts the oldest entries until the
// cache fits its cap. A reference larger than the cap alone is dropped;
// one evicted while the request ran stays out.
func (c *refCache) settle(key string, ref *surface.Reference) {
	b := ref.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.ref != ref {
		return
	}
	if b > c.max {
		c.remove(key)
	} else {
		c.bytes += b - e.bytes
		e.bytes = b
		for c.bytes > c.max {
			c.remove(c.order[0])
		}
	}
	c.gauge.Set(float64(c.bytes))
}

// remove drops the entry under key. The caller holds mu.
func (c *refCache) remove(key string) {
	c.bytes -= c.entries[key].bytes
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
