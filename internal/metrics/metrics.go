// Package metrics records the per-query outcomes of the paper's
// evaluation — latency, supersteps, locality, scope size — in a bounded
// ring, and summarises them. The recorder is safe for concurrent use.
package metrics

import (
	"sort"
	"sync"
	"time"
)

// QueryRecord is the outcome of one finished query.
type QueryRecord struct {
	ID          int64
	Kind        string
	ScheduledAt time.Time
	Latency     time.Duration
	Supersteps  int
	LocalIters  int // supersteps executed fully locally on one worker
	Touched     int // global query scope size |GS(q)|
	Workers     int // workers the query ever involved (its query-cut share)
	Result      float64
}

// Locality returns the fraction of supersteps executed fully locally.
func (r QueryRecord) Locality() float64 {
	if r.Supersteps == 0 {
		return 1
	}
	return float64(r.LocalIters) / float64(r.Supersteps)
}

// DefaultMaxQueries bounds retained query records (~6 MiB). A recorder
// lives as long as the engine, so the ring keeps the newest window and
// evicts the oldest beyond it.
const DefaultMaxQueries = 1 << 16

// Recorder accumulates query records in a bounded ring; summaries cover
// the retained window.
type Recorder struct {
	mu   sync.Mutex
	buf  []QueryRecord
	next int // oldest record, overwritten next, once buf is full
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RecordQuery appends a finished query, evicting the oldest retained
// record past the retention cap.
func (r *Recorder) RecordQuery(q QueryRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < DefaultMaxQueries {
		r.buf = append(r.buf, q)
		return
	}
	r.buf[r.next] = q
	r.next = (r.next + 1) % len(r.buf)
}

// Queries returns a copy of the retained query records, oldest first.
func (r *Recorder) Queries() []QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append(make([]QueryRecord, 0, len(r.buf)), r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Summary aggregates query records.
type Summary struct {
	Count         int
	TotalLatency  time.Duration
	MeanLatency   time.Duration
	P50, P95, P99 time.Duration
	MeanLocality  float64
	MeanTouched   float64
}

// Summarize aggregates all recorded queries.
func (r *Recorder) Summarize() Summary {
	return SummarizeRecords(r.Queries())
}

// SummarizeRecords aggregates a record slice.
func SummarizeRecords(qs []QueryRecord) Summary {
	var s Summary
	s.Count = len(qs)
	if s.Count == 0 {
		return s
	}
	lats := make([]time.Duration, 0, len(qs))
	var loc, touched float64
	for _, q := range qs {
		s.TotalLatency += q.Latency
		lats = append(lats, q.Latency)
		loc += q.Locality()
		touched += float64(q.Touched)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.MeanLatency = s.TotalLatency / time.Duration(s.Count)
	s.P50 = lats[len(lats)/2]
	s.P95 = lats[min(len(lats)*95/100, len(lats)-1)]
	s.P99 = lats[min(len(lats)*99/100, len(lats)-1)]
	s.MeanLocality = loc / float64(s.Count)
	s.MeanTouched = touched / float64(s.Count)
	return s
}
