package serve

import (
	"sync"

	"repro/internal/obs"
)

// limiter enforces the per-tenant admission policy for synchronous
// compute requests: at most maxInflight computing at once per tenant,
// at most maxQueue more waiting behind them, everything else rejected
// immediately so a hot tenant degrades with fast 429s instead of an
// unbounded goroutine pile-up — and without starving other tenants,
// whose slots are independent.
type limiter struct {
	mu          sync.Mutex
	maxInflight int
	maxQueue    int
	tenants     map[string]*tenant
	depth       *obs.Gauge // serve_queue_depth: waiters across all tenants
}

// tenant is one API key's admission state. sem holds the inflight slots;
// queued counts requests blocked on it.
type tenant struct {
	sem    chan struct{}
	queued int
}

func newLimiter(maxInflight, maxQueue int, depth *obs.Gauge) *limiter {
	return &limiter{
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
		tenants:     make(map[string]*tenant),
		depth:       depth,
	}
}

// acquire admits one request for the tenant, blocking in the bounded
// queue when every inflight slot is busy. It returns the release
// function and true, or (nil, false) when the queue is full — the 429
// path. Queued waiters are admitted in whatever order the runtime wakes
// them; fairness across tenants comes from the per-tenant slots.
func (l *limiter) acquire(key string) (release func(), ok bool) {
	l.mu.Lock()
	t := l.tenants[key]
	if t == nil {
		t = &tenant{sem: make(chan struct{}, l.maxInflight)}
		l.tenants[key] = t
	}
	release = func() { <-t.sem }
	select {
	case t.sem <- struct{}{}:
		l.mu.Unlock()
		return release, true
	default:
	}
	if t.queued >= l.maxQueue {
		l.mu.Unlock()
		return nil, false
	}
	t.queued++
	l.mu.Unlock()
	l.depth.Add(1)

	t.sem <- struct{}{} // blocks until an inflight slot frees

	l.mu.Lock()
	t.queued--
	l.mu.Unlock()
	l.depth.Add(-1)
	return release, true
}
