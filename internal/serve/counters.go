package serve

import (
	"sync/atomic"
	"time"
)

// Counters are the serving-layer counters: request admission, cache
// effectiveness, and queue wait. All fields are atomics, safe for
// concurrent use on the request path without locking.
type Counters struct {
	start atomic.Int64 // unix nanos of construction

	Received  atomic.Int64 // POST /query requests accepted for processing
	Completed atomic.Int64 // queries answered with a result
	Failed    atomic.Int64 // queries that ended in an engine error
	Rejected  atomic.Int64 // admission rejections (429)
	Expired   atomic.Int64 // requests that hit their deadline (504)

	CacheHits   atomic.Int64 // answered from the result cache
	Coalesced   atomic.Int64 // joined an identical in-flight query
	CacheMisses atomic.Int64 // cache lookups that missed (no_cache requests never look)
	Invalidated atomic.Int64 // cache entries evicted by commits

	QueueWaitNanos atomic.Int64 // total admission queue wait
	QueueWaits     atomic.Int64 // count of admitted requests (wait samples)

	MutationOps      atomic.Int64 // ops received on POST /mutate
	MutationsApplied atomic.Int64 // ops that changed the graph
	MutationNoOps    atomic.Int64 // ops referencing a non-existent edge
	MutationBatches  atomic.Int64 // client batches committed
	MutationsFailed  atomic.Int64 // batches rejected, failed, or timed out
}

// newCounters returns counters anchored at now.
func newCounters(now time.Time) *Counters {
	c := &Counters{}
	c.start.Store(now.UnixNano())
	return c
}

// ObserveQueueWait records one admission grant and its queue wait.
func (c *Counters) ObserveQueueWait(d time.Duration) {
	c.QueueWaitNanos.Add(int64(d))
	c.QueueWaits.Add(1)
}

// CountersSnapshot is a consistent-enough copy of the counters with the
// derived rates the /stats endpoint reports.
type CountersSnapshot struct {
	Uptime    time.Duration `json:"uptime"`
	Received  int64         `json:"received"`
	Completed int64         `json:"completed"`
	Failed    int64         `json:"failed"`
	Rejected  int64         `json:"rejected"`
	Expired   int64         `json:"expired"`

	CacheHits   int64 `json:"cache_hits"`
	Coalesced   int64 `json:"coalesced"`
	CacheMisses int64 `json:"cache_misses"`
	Invalidated int64 `json:"cache_invalidations"`

	MutationOps      int64 `json:"mutation_ops"`
	MutationsApplied int64 `json:"mutations_applied"`
	MutationNoOps    int64 `json:"mutation_noops"`
	MutationBatches  int64 `json:"mutation_batches"`
	MutationsFailed  int64 `json:"mutations_failed"`

	// QPS is completed queries per second of uptime.
	QPS float64 `json:"qps"`
	// ApplyRate is applied mutation ops per second of uptime.
	ApplyRate float64 `json:"mutation_apply_rate"`
	// HitRatio is (hits+coalesced) / lookups.
	HitRatio float64 `json:"cache_hit_ratio"`
	// MeanQueueWait averages admission queue wait over admitted requests.
	MeanQueueWait time.Duration `json:"mean_queue_wait"`
}

// Snapshot derives the reportable view at time now.
func (c *Counters) Snapshot(now time.Time) CountersSnapshot {
	s := CountersSnapshot{
		Received:    c.Received.Load(),
		Completed:   c.Completed.Load(),
		Failed:      c.Failed.Load(),
		Rejected:    c.Rejected.Load(),
		Expired:     c.Expired.Load(),
		CacheHits:   c.CacheHits.Load(),
		Coalesced:   c.Coalesced.Load(),
		CacheMisses: c.CacheMisses.Load(),
		Invalidated: c.Invalidated.Load(),

		MutationOps:      c.MutationOps.Load(),
		MutationsApplied: c.MutationsApplied.Load(),
		MutationNoOps:    c.MutationNoOps.Load(),
		MutationBatches:  c.MutationBatches.Load(),
		MutationsFailed:  c.MutationsFailed.Load(),
	}
	if t0 := c.start.Load(); t0 != 0 {
		s.Uptime = now.Sub(time.Unix(0, t0))
	}
	if sec := s.Uptime.Seconds(); sec > 0 {
		s.QPS = float64(s.Completed) / sec
		s.ApplyRate = float64(s.MutationsApplied) / sec
	}
	if lookups := s.CacheHits + s.Coalesced + s.CacheMisses; lookups > 0 {
		s.HitRatio = float64(s.CacheHits+s.Coalesced) / float64(lookups)
	}
	if n := c.QueueWaits.Load(); n > 0 {
		s.MeanQueueWait = time.Duration(c.QueueWaitNanos.Load() / n)
	}
	return s
}
