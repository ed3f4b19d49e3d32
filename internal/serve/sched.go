// Package serve turns the Q-Graph controller into a multi-tenant network
// service: an HTTP/JSON API (server.go) in front of admission control with
// weighted-fair queueing and backpressure (this file) and a scope-
// invalidated result cache with singleflight coalescing (cache.go).
//
// The paper's execution model makes this serving layer cheap: queries keep
// private state and never conflict on writes, so the only scarce resources
// are controller barrier round-trips and worker compute — exactly what the
// bounded in-flight limit meters.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueFull is returned by Acquire when the admission queue is at
// capacity; HTTP callers translate it to 429 with Retry-After.
var ErrQueueFull = errors.New("serve: admission queue full")

// AdmitConfig parameterises admission control.
type AdmitConfig struct {
	// MaxInFlight bounds queries executing concurrently in the engine
	// (default 16, the paper's batch parallelism).
	MaxInFlight int
	// MaxQueue bounds waiters beyond the in-flight set; an arriving
	// request that finds the queue full is rejected (default 64).
	MaxQueue int
	// MaxQueuePerTenant bounds one tenant's share of the queue (default
	// MaxQueue/4, min 1). Without it, one aggressive tenant could fill
	// the global queue and starve everyone before weighted-fair ordering
	// ever gets a say — the fair tags only order waiters already queued.
	MaxQueuePerTenant int
	// Weights sets per-tenant fair-queueing weights; a tenant's share of
	// admission slots under contention is proportional to its weight.
	Weights map[string]float64
	// DefaultWeight applies to tenants absent from Weights (default 1).
	DefaultWeight float64
}

func (c *AdmitConfig) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	if c.MaxQueuePerTenant <= 0 {
		c.MaxQueuePerTenant = max(1, c.MaxQueue/4)
	}
}

// waiter is one queued admission request.
type waiter struct {
	tag      float64 // virtual finish time (start-time fair queueing)
	ready    chan struct{}
	granted  bool
	enqueued time.Time
}

// tenantQ is one tenant's FIFO of waiters plus its fair-queueing state.
// Abandoned waiters are removed eagerly, so q holds only live ones.
type tenantQ struct {
	weight  float64
	lastTag float64
	q       []*waiter
}

// Admission is the bounded-concurrency gate in front of the engine. Slots
// are granted in weighted-fair order across tenants: each waiter gets a
// virtual finish tag max(vtime, tenantLast) + 1/weight, and frees slots go
// to the smallest tag. Within a tenant, FIFO. Safe for concurrent use.
type Admission struct {
	mu       sync.Mutex
	cfg      AdmitConfig
	clock    func() time.Time
	inFlight int
	queued   int
	vtime    float64
	tenants  map[string]*tenantQ
}

// NewAdmission creates an admission gate. clock may be nil (time.Now).
func NewAdmission(cfg AdmitConfig, clock func() time.Time) *Admission {
	cfg.fill()
	if clock == nil {
		clock = time.Now
	}
	return &Admission{cfg: cfg, clock: clock, tenants: make(map[string]*tenantQ)}
}

// Acquire obtains an admission slot for tenant, waiting in the weighted-
// fair queue if the in-flight limit is reached. It returns a release
// function (call exactly once when the query leaves the engine) and the
// time spent queued. It fails fast with ErrQueueFull when the queue is at
// capacity, or with ctx.Err() when the caller's deadline expires while
// queued — the abandoned waiter is dropped from the queue.
func (a *Admission) Acquire(ctx context.Context, tenant string) (release func(), wait time.Duration, err error) {
	a.mu.Lock()
	if a.inFlight < a.cfg.MaxInFlight && a.queued == 0 {
		a.inFlight++
		a.mu.Unlock()
		return a.release, 0, nil
	}
	if a.queued >= a.cfg.MaxQueue {
		a.mu.Unlock()
		return nil, 0, ErrQueueFull
	}
	if t := a.tenants[tenant]; t != nil && len(t.q) >= a.cfg.MaxQueuePerTenant {
		a.mu.Unlock()
		return nil, 0, ErrQueueFull
	}
	t := a.tenants[tenant]
	if t == nil {
		w := a.cfg.DefaultWeight
		if ww, ok := a.cfg.Weights[tenant]; ok && ww > 0 {
			w = ww
		}
		t = &tenantQ{weight: w, lastTag: a.vtime}
		a.tenants[tenant] = t
	}
	w := &waiter{ready: make(chan struct{}), enqueued: a.clock()}
	w.tag = max(a.vtime, t.lastTag) + 1/t.weight
	t.lastTag = w.tag
	t.q = append(t.q, w)
	a.queued++
	a.mu.Unlock()

	select {
	case <-w.ready:
		return a.release, a.clock().Sub(w.enqueued), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the deadline; the slot is ours to return.
			a.mu.Unlock()
			return a.release, a.clock().Sub(w.enqueued), nil
		}
		// Remove the waiter eagerly: leaving it for a lazy dispatch sweep
		// would let abandoned waiters accumulate unboundedly while every
		// slot is held by a long query (no release → no dispatch).
		for i, qw := range t.q {
			if qw == w {
				t.q = append(t.q[:i], t.q[i+1:]...)
				break
			}
		}
		if len(t.q) == 0 {
			delete(a.tenants, tenant)
		}
		a.queued--
		a.mu.Unlock()
		return nil, 0, ctx.Err()
	}
}

// release frees one slot and hands it to the fairest waiter.
func (a *Admission) release() {
	a.mu.Lock()
	a.inFlight--
	a.dispatch()
	a.mu.Unlock()
}

// dispatch grants free slots to the waiters with the smallest virtual
// finish tags. Caller holds mu. Tenant counts are small (a linear scan
// beats a heap at this scale and cannot get the lazy-removal bookkeeping
// wrong).
func (a *Admission) dispatch() {
	for a.inFlight < a.cfg.MaxInFlight {
		var best *tenantQ
		var bestName string
		for name, t := range a.tenants {
			// Abandoned waiters are removed eagerly in Acquire, so every
			// queued waiter here is live; forget tenants whose queues
			// drained — the name is client-supplied, so retaining every
			// string ever seen would grow without bound. A returning
			// tenant re-anchors at the current vtime, which is exactly
			// what a fresh tenantQ does.
			if len(t.q) == 0 {
				delete(a.tenants, name)
				continue
			}
			if best == nil || t.q[0].tag < best.q[0].tag {
				best, bestName = t, name
			}
		}
		if best == nil {
			return
		}
		w := best.q[0]
		best.q = best.q[1:]
		if len(best.q) == 0 {
			delete(a.tenants, bestName)
		}
		a.queued--
		a.inFlight++
		a.vtime = max(a.vtime, w.tag)
		w.granted = true
		close(w.ready)
	}
}

// Full reports whether a new waiter for tenant would be rejected
// outright (global queue or the tenant's share exhausted); the server
// uses it to bounce async submissions before allocating per-request
// state for a query that admission would refuse anyway.
func (a *Admission) Full(tenant string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.queued >= a.cfg.MaxQueue {
		return true
	}
	t := a.tenants[tenant]
	return t != nil && len(t.q) >= a.cfg.MaxQueuePerTenant
}

// AdmitStats is the admission introspection for /stats.
type AdmitStats struct {
	InFlight    int `json:"in_flight"`
	Queued      int `json:"queued"`
	MaxInFlight int `json:"max_in_flight"`
	MaxQueue    int `json:"max_queue"`
}

// Stats returns a consistent snapshot.
func (a *Admission) Stats() AdmitStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmitStats{
		InFlight:    a.inFlight,
		Queued:      a.queued,
		MaxInFlight: a.cfg.MaxInFlight,
		MaxQueue:    a.cfg.MaxQueue,
	}
}
