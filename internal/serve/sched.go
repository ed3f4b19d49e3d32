// Package serve turns the Q-Graph controller into a network service: an
// HTTP/JSON API (server.go) in front of FIFO admission control with
// backpressure (this file) and a scope-invalidated result cache with
// singleflight coalescing (cache.go).
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
}

func (c *AdmitConfig) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
}

// waiter is one queued admission request.
type waiter struct {
	ready    chan struct{}
	granted  bool
	enqueued time.Time
}

// Admission is the bounded-concurrency gate in front of the engine: at
// most MaxInFlight holders, at most MaxQueue waiters, slots granted in
// arrival order. Safe for concurrent use.
type Admission struct {
	mu       sync.Mutex
	cfg      AdmitConfig
	clock    func() time.Time
	inFlight int
	q        []*waiter // live waiters, oldest first
}

// NewAdmission creates an admission gate. clock may be nil (time.Now).
func NewAdmission(cfg AdmitConfig, clock func() time.Time) *Admission {
	cfg.fill()
	if clock == nil {
		clock = time.Now
	}
	return &Admission{cfg: cfg, clock: clock}
}

// Acquire obtains an admission slot, waiting in the FIFO queue if the
// in-flight limit is reached. It returns a release function (call exactly
// once when the query leaves the engine) and the time spent queued. It
// fails fast with ErrQueueFull when the queue is at capacity, or with
// ctx.Err() when the caller's deadline expires while queued — the
// abandoned waiter is dropped from the queue.
func (a *Admission) Acquire(ctx context.Context) (release func(), wait time.Duration, err error) {
	a.mu.Lock()
	if a.inFlight < a.cfg.MaxInFlight && len(a.q) == 0 {
		a.inFlight++
		a.mu.Unlock()
		return a.release, 0, nil
	}
	if len(a.q) >= a.cfg.MaxQueue {
		a.mu.Unlock()
		return nil, 0, ErrQueueFull
	}
	w := &waiter{ready: make(chan struct{}), enqueued: a.clock()}
	a.q = append(a.q, w)
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
		for i, qw := range a.q {
			if qw == w {
				a.q = append(a.q[:i], a.q[i+1:]...)
				break
			}
		}
		a.mu.Unlock()
		return nil, 0, ctx.Err()
	}
}

// release frees one slot and hands it to the oldest waiter.
func (a *Admission) release() {
	a.mu.Lock()
	a.inFlight--
	for a.inFlight < a.cfg.MaxInFlight && len(a.q) > 0 {
		w := a.q[0]
		a.q[0] = nil
		a.q = a.q[1:]
		a.inFlight++
		w.granted = true
		close(w.ready)
	}
	a.mu.Unlock()
}

// Full reports whether a new waiter would be rejected outright; the
// server uses it to bounce async submissions before allocating
// per-request state for a query that admission would refuse anyway.
func (a *Admission) Full() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.q) >= a.cfg.MaxQueue
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
		Queued:      len(a.q),
		MaxInFlight: a.cfg.MaxInFlight,
		MaxQueue:    a.cfg.MaxQueue,
	}
}
