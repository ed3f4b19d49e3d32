package serve

import (
	"testing"
	"time"
)

func TestCountersSnapshot(t *testing.T) {
	t0 := time.Unix(100, 0)
	c := newCounters(t0)
	c.Received.Add(10)
	c.Completed.Add(8)
	c.Rejected.Add(1)
	c.Expired.Add(1)
	c.CacheHits.Add(3)
	c.Coalesced.Add(1)
	c.CacheMisses.Add(4)
	c.ObserveQueueWait(20 * time.Millisecond)
	c.ObserveQueueWait(40 * time.Millisecond)

	s := c.Snapshot(t0.Add(4 * time.Second))
	if s.Uptime != 4*time.Second {
		t.Fatalf("uptime %v, want 4s", s.Uptime)
	}
	if s.QPS != 2 {
		t.Fatalf("qps %v, want 2 (8 completed / 4s)", s.QPS)
	}
	if s.HitRatio != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5 ((3+1)/8)", s.HitRatio)
	}
	if s.MeanQueueWait != 30*time.Millisecond {
		t.Fatalf("mean queue wait %v, want 30ms", s.MeanQueueWait)
	}
}

func TestCountersEmpty(t *testing.T) {
	c := newCounters(time.Unix(100, 0))
	s := c.Snapshot(time.Unix(100, 0))
	if s.QPS != 0 || s.HitRatio != 0 || s.MeanQueueWait != 0 {
		t.Fatalf("empty snapshot has nonzero derived values: %+v", s)
	}
}
