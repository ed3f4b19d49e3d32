package health

import (
	"sync"
	"time"
)

// Severity ranks an event for filtering: info (normal lifecycle), warn
// (a detector fired but the system is still serving), critical (service
// is impaired — terminal degradation, stalled barriers).
type Severity string

// Severity levels, ordered info < warn < critical.
const (
	SevInfo     Severity = "info"
	SevWarn     Severity = "warn"
	SevCritical Severity = "critical"
)

func sevRank(s Severity) int {
	switch s {
	case SevWarn:
		return 1
	case SevCritical:
		return 2
	}
	return 0
}

// Event type strings. Detections carry the detector's evidence in
// Fields; lifecycle events mirror what the engine already logs so the
// ring is a self-contained timeline.
const (
	EventStraggler      = "event_straggler"
	EventStragglerClear = "event_straggler_clear"
	EventBarrierStall   = "event_barrier_stall"
	EventQueryStall     = "event_query_stall"
	EventStallClear     = "event_stall_clear"
	EventWorkerDead     = "event_worker_dead"
	EventRecovery       = "event_recovery"
	EventTerminal       = "event_terminal"
	EventSnapshotCut    = "event_snapshot_cut"
	EventCodecReject    = "event_codec_reject"
)

// Event is one entry of the bounded structured event log.
type Event struct {
	Seq      int64          `json:"seq"`
	At       time.Time      `json:"at"`
	Type     string         `json:"type"`
	Severity Severity       `json:"severity"`
	Msg      string         `json:"msg"`
	Worker   int            `json:"worker"` // worker id the event concerns, -1 when not worker-scoped
	Fields   map[string]any `json:"fields,omitempty"`
}

// EventFilter selects events for listing. Zero values mean "no
// constraint"; MinSeverity keeps events at or above that severity.
type EventFilter struct {
	Type        string
	MinSeverity Severity
	Limit       int // max events returned (<=0 selects 100)
}

// EventLog is a bounded ring of events: insertion overwrites the oldest
// slot in O(1), same shape as the Tracer's completed-trace ring, so a
// misbehaving detector can never grow memory without bound.
type EventLog struct {
	mu   sync.Mutex
	seq  int64
	ring []Event
	next int // next write index
	n    int // filled slots, <= len(ring)
}

// eventRing bounds how many events a Monitor retains.
const eventRing = 512

// newEventLog builds a log retaining up to capacity events.
func newEventLog(capacity int) *EventLog {
	return &EventLog{ring: make([]Event, capacity)}
}

// Append stamps the event with the next sequence number and stores it,
// evicting the oldest when full. The stamped event is returned.
func (l *EventLog) Append(e Event) Event {
	if l == nil {
		return e
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
	return e
}

// List returns matching events newest-first (operators read the tail of
// the timeline first).
func (l *EventLog) List(f EventFilter) []Event {
	if l == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	minRank := sevRank(f.MinSeverity)
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, min(limit, l.n))
	for i := l.n - 1; i >= 0 && len(out) < limit; i-- {
		e := l.ring[(l.next-l.n+i+len(l.ring))%len(l.ring)]
		if f.Type != "" && e.Type != f.Type {
			continue
		}
		if sevRank(e.Severity) < minRank {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Len reports how many events are retained.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
