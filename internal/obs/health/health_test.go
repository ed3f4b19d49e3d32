package health

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qgraph/internal/obs"
)

// newTestMonitor builds a Monitor on a fixed clock, on a real registry
// so metric registration is exercised too.
func newTestMonitor() *Monitor {
	t0 := time.Unix(1_700_000_000, 0)
	return New(Config{Clock: func() time.Time { return t0 }}, obs.New(nil))
}

func eventTypes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func TestEventLogRingWrapAndFilters(t *testing.T) {
	l := newEventLog(4)
	sevs := []Severity{SevInfo, SevWarn, SevCritical, SevInfo, SevWarn, SevCritical, SevWarn}
	for i, sev := range sevs {
		l.Append(Event{Type: "t" + string(rune('a'+i)), Severity: sev, Worker: -1})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", l.Len())
	}
	got := l.List(EventFilter{})
	want := []string{"tg", "tf", "te", "td"} // newest first, oldest three evicted
	if strings.Join(eventTypes(got), ",") != strings.Join(want, ",") {
		t.Fatalf("List = %v, want %v", eventTypes(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq >= got[i-1].Seq {
			t.Fatalf("Seq not strictly decreasing newest-first: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if got := l.List(EventFilter{Type: "te"}); len(got) != 1 || got[0].Type != "te" {
		t.Fatalf("type filter = %v", eventTypes(got))
	}
	// Severity filter keeps that severity and above.
	if got := l.List(EventFilter{MinSeverity: SevCritical}); len(got) != 1 || got[0].Type != "tf" {
		t.Fatalf("critical filter = %v", eventTypes(got))
	}
	if got := l.List(EventFilter{MinSeverity: SevWarn}); len(got) != 3 {
		t.Fatalf("warn filter kept %d events, want 3", len(got))
	}
	if got := l.List(EventFilter{Limit: 2}); len(got) != 2 || got[0].Type != "tg" {
		t.Fatalf("limit filter = %v", eventTypes(got))
	}
}

// feedHealthy reports one healthy superstep for each listed worker: 1ms
// over 100 vertices.
func feedHealthy(m *Monitor, workers ...int) {
	for _, w := range workers {
		m.ObserveCompute(w, int64(time.Millisecond), 1, 100)
	}
}

func TestStragglerFireAndClear(t *testing.T) {
	m := newTestMonitor()

	// Two healthy peers at 10µs/vertex, worker 0 at 200µs/vertex on the
	// same work: the threshold is k x 10µs, so worker 0 strikes every
	// observation.
	feedHealthy(m, 1, 2)
	for i := 1; i < stragglerSteps; i++ {
		m.ObserveCompute(0, int64(20*time.Millisecond), 1, 100)
		if s := m.Snapshot(); s.Degraded {
			t.Fatalf("degraded after %d strikes, want %d required", i, stragglerSteps)
		}
	}
	m.ObserveCompute(0, int64(20*time.Millisecond), 1, 100) // strike m: fires

	s := m.Snapshot()
	if !s.Degraded || len(s.Stragglers) != 1 || s.Stragglers[0] != 0 {
		t.Fatalf("snapshot after fire = %+v, want degraded with stragglers [0]", s)
	}
	if evs := m.Events(EventFilter{Type: EventStraggler}); len(evs) != 1 || evs[0].Worker != 0 {
		t.Fatalf("straggler events = %v", evs)
	}

	// A continued straggle must not flap into more events.
	m.ObserveCompute(0, int64(20*time.Millisecond), 1, 100)
	if evs := m.Events(EventFilter{Type: EventStraggler}); len(evs) != 1 {
		t.Fatalf("straggler re-fired while already flagged: %v", evs)
	}

	// Recovery: m consecutive healthy samples clear the flag and emit the
	// clear event.
	for i := 0; i < stragglerSteps; i++ {
		m.ObserveCompute(0, int64(time.Millisecond), 1, 100)
	}
	if s := m.Snapshot(); s.Degraded || len(s.Stragglers) != 0 {
		t.Fatalf("snapshot after recovery = %+v, want healthy", s)
	}
	if evs := m.Events(EventFilter{Type: EventStragglerClear}); len(evs) != 1 {
		t.Fatalf("clear events = %v", evs)
	}

	// The registry renders without deadlock and carries the health families.
	var sb strings.Builder
	m.reg.WritePrometheus(&sb)
	for _, want := range []string{
		`qgraph_worker_step_ewma_ms{worker="0"}`,
		"qgraph_health_stragglers_total 1",
		"qgraph_health_degraded 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestStragglerClearsWhenIdle: a flag raised near the end of a load
// clears once no worker reported compute for stragglerIdle, not before.
func TestStragglerClearsWhenIdle(t *testing.T) {
	now := time.Unix(1_000, 0)
	m := New(Config{Clock: func() time.Time { return now }}, obs.New(nil))
	feedHealthy(m, 1, 2)
	for range stragglerSteps {
		m.ObserveCompute(0, int64(20*time.Millisecond), 1, 100)
	}
	if s := m.Snapshot(); len(s.Stragglers) != 1 {
		t.Fatalf("snapshot under load = %+v, want worker 0 flagged", s)
	}
	now = now.Add(stragglerIdle - time.Millisecond)
	if s := m.Snapshot(); len(s.Stragglers) != 1 {
		t.Fatalf("snapshot idle for less than the window = %+v, want worker 0 still flagged", s)
	}
	now = now.Add(time.Millisecond)
	if s := m.Snapshot(); s.Degraded || len(s.Stragglers) != 0 {
		t.Fatalf("snapshot idle for the window = %+v, want healthy", s)
	}
	if evs := m.Events(EventFilter{Type: EventStragglerClear}); len(evs) != 1 || evs[0].Worker != 0 {
		t.Fatalf("clear events = %v", evs)
	}
}

func TestStragglerNeedsPeersAndFloor(t *testing.T) {
	m := newTestMonitor()
	// A lone worker has no peers: never flagged however slow.
	for i := 0; i < 10; i++ {
		m.ObserveCompute(0, int64(time.Second), 1, 100)
	}
	if s := m.Snapshot(); s.Degraded {
		t.Fatalf("lone worker flagged: %+v", s)
	}
	// Microsecond-scale skew below the absolute floor never flags either.
	m2 := newTestMonitor()
	for i := 0; i < 10; i++ {
		m2.ObserveCompute(1, int64(10*time.Microsecond), 1, 100)
		m2.ObserveCompute(0, int64(900*time.Microsecond), 1, 100) // 90x peers, under the 1ms floor
	}
	if s := m2.Snapshot(); s.Degraded {
		t.Fatalf("sub-floor worker flagged: %+v", s)
	}
}

func TestMarkWorkerDeadUnflagsAndSkewsNoMedian(t *testing.T) {
	m := newTestMonitor()
	feedHealthy(m, 2)
	m.ObserveCompute(1, int64(5*time.Millisecond), 1, 100) // 50µs/vertex
	for i := 0; i < stragglerSteps; i++ {
		m.ObserveCompute(0, int64(20*time.Millisecond), 1, 100)
	}
	if fmt.Sprint(m.Snapshot().Stragglers) != "[0]" {
		t.Fatal("straggler did not fire")
	}
	m.MarkWorkerDead(0)
	s := m.Snapshot()
	if s.Degraded {
		t.Fatalf("dead worker still degrades: %+v", s)
	}
	// The dead worker's 200µs/vertex must not skew the live-set median:
	// worker 1 at 50µs/vertex against peer 2's 10µs has threshold 40µs.
	for i := 0; i < stragglerSteps; i++ {
		m.ObserveCompute(1, int64(5*time.Millisecond), 1, 100)
	}
	if !m.Snapshot().Degraded {
		t.Fatal("dead worker's stale EWMA still lifted the peer median")
	}
	// Rejoin resets detector state from scratch.
	m.MarkWorkerLive(0)
	if ws := m.workers[0]; ws.samples != 0 || ws.dead {
		t.Fatalf("rejoined worker state = %+v", ws)
	}
}

func TestStallDetectorEdgeTriggered(t *testing.T) {
	m := newTestMonitor()
	m.CheckStall("draining", stallTimeout+5*time.Second, 0)
	if s := m.Snapshot(); !s.Degraded || !s.Stalled {
		t.Fatalf("snapshot = %+v, want stalled", s)
	}
	if evs := m.Events(EventFilter{Type: EventBarrierStall}); len(evs) != 1 || evs[0].Severity != SevCritical {
		t.Fatalf("barrier stall events = %v", evs)
	}
	// Still stalled: edge-triggered, no second event.
	m.CheckStall("draining", stallTimeout+6*time.Second, 0)
	if evs := m.Events(EventFilter{Type: EventBarrierStall}); len(evs) != 1 {
		t.Fatalf("stall re-fired: %v", evs)
	}
	// Phase completes: clears.
	m.CheckStall("run", 0, 0)
	if s := m.Snapshot(); s.Stalled {
		t.Fatalf("snapshot after clear = %+v", s)
	}
	if evs := m.Events(EventFilter{Type: EventStallClear}); len(evs) != 1 {
		t.Fatalf("clear events = %v", evs)
	}
	// The superstep watchdog is independent of the phase watchdog.
	m.CheckStall("run", 0, 2*stallTimeout)
	if evs := m.Events(EventFilter{Type: EventQueryStall}); len(evs) != 1 {
		t.Fatalf("superstep stall events = %v", evs)
	}
}

func TestRecordedLifecycleEvents(t *testing.T) {
	m := newTestMonitor()
	m.Record(EventSnapshotCut, SevInfo, -1, "cut v3", map[string]any{"version": 3})
	m.Record(EventCodecReject, SevWarn, -1, "bad peer", nil)
	evs := m.Events(EventFilter{})
	if len(evs) != 2 || evs[0].Type != EventCodecReject || evs[1].Type != EventSnapshotCut {
		t.Fatalf("events = %v", eventTypes(evs))
	}
	if evs[1].Fields["version"] != 3 {
		t.Fatalf("fields lost: %+v", evs[1].Fields)
	}
}

// TestNilMonitor locks in the nil-receiver contract every feed site
// relies on: an engine built without a Monitor pays one nil check.
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.Record(EventRecovery, SevInfo, -1, "x", nil)
	m.ObserveCompute(0, 1e9, 1, 1)
	m.CheckStall("run", time.Hour, time.Hour)
	m.MarkWorkerDead(0)
	m.MarkWorkerLive(0)
	if s := m.Snapshot(); s.Degraded {
		t.Fatal("nil monitor degraded")
	}
	if evs := m.Events(EventFilter{}); evs != nil {
		t.Fatalf("nil monitor events = %v", evs)
	}
}
