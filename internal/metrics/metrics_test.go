package metrics

import (
	"testing"
	"time"
)

func mkRecorder(latencies ...time.Duration) *Recorder {
	t0 := time.Unix(1000, 0)
	r := NewRecorder()
	for i, l := range latencies {
		r.RecordQuery(QueryRecord{
			ID:          int64(i + 1),
			ScheduledAt: t0.Add(time.Duration(i) * time.Second),
			Latency:     l,
			Supersteps:  10,
			LocalIters:  i % 11,
			Touched:     100,
			Workers:     2,
		})
	}
	return r
}

func TestSummarize(t *testing.T) {
	r := mkRecorder(time.Second, 3*time.Second, 2*time.Second)
	s := r.Summarize()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.TotalLatency != 6*time.Second {
		t.Fatalf("total = %v", s.TotalLatency)
	}
	if s.MeanLatency != 2*time.Second {
		t.Fatalf("mean = %v", s.MeanLatency)
	}
	if s.P50 != 2*time.Second {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.MeanTouched != 100 {
		t.Fatalf("touched = %v", s.MeanTouched)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r := NewRecorder()
	s := r.Summarize()
	if s.Count != 0 || s.TotalLatency != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestLocality(t *testing.T) {
	q := QueryRecord{Supersteps: 10, LocalIters: 4}
	if q.Locality() != 0.4 {
		t.Fatalf("locality = %v", q.Locality())
	}
	zero := QueryRecord{}
	if zero.Locality() != 1 {
		t.Fatalf("zero-step locality = %v (a query that never iterated is trivially local)", zero.Locality())
	}
}

// TestConcurrentRecording: the recorder is safe under concurrent use.
func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				r.RecordQuery(QueryRecord{ID: int64(g*1000 + i), Latency: time.Millisecond, Supersteps: 1})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := len(r.Queries()); got != 2000 {
		t.Fatalf("recorded %d queries, want 2000", got)
	}
}

// TestRecorderBoundedRetention: the ring evicts oldest-first at the cap,
// snapshots stay chronological, and summaries cover exactly the retained
// window — a recorder on a long-lived engine must not grow forever.
func TestRecorderBoundedRetention(t *testing.T) {
	r := NewRecorder()
	const extra = 137
	for i := 0; i < DefaultMaxQueries+extra; i++ {
		r.RecordQuery(QueryRecord{ID: int64(i), Latency: time.Millisecond, Supersteps: 1})
	}
	qs := r.Queries()
	if len(qs) != DefaultMaxQueries {
		t.Fatalf("retained %d queries, want %d", len(qs), DefaultMaxQueries)
	}
	if qs[0].ID != extra {
		t.Errorf("oldest retained ID = %d, want %d (oldest evicted first)", qs[0].ID, extra)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].ID != qs[i-1].ID+1 {
			t.Fatalf("snapshot not chronological at %d: %d after %d", i, qs[i].ID, qs[i-1].ID)
		}
	}
	if s := r.Summarize(); s.Count != DefaultMaxQueries {
		t.Errorf("Summarize covers %d, want the retained window %d", s.Count, DefaultMaxQueries)
	}
}
