package health

import (
	"strings"
	"sync"
	"testing"
	"time"

	"qgraph/internal/obs"
)

// fakeClock is a manually advanced time source for the detectors.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestMonitor builds a Monitor on a fake clock with a short incident
// cooldown, on a real registry so metric registration is exercised too.
func newTestMonitor(mut func(*Config)) (*Monitor, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := Config{Clock: clk.Now, IncidentCooldown: time.Second}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg, obs.New(nil)), clk
}

func eventTypes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func TestEventLogRingWrapAndFilters(t *testing.T) {
	l := NewEventLog(4)
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

// feedHealthy reports one healthy 1ms superstep for each listed worker.
func feedHealthy(m *Monitor, workers ...int) {
	for _, w := range workers {
		m.ObserveCompute(w, int64(time.Millisecond), 1)
	}
}

func TestStragglerFireAndClear(t *testing.T) {
	m, _ := newTestMonitor(func(c *Config) {
		c.StragglerFactor = 4
		c.StragglerSteps = 2
	})

	// Two healthy peers at 1ms/step, worker 0 at 20ms/step: the threshold
	// is 4 x 1ms, so worker 0 strikes every observation.
	feedHealthy(m, 1, 2)
	m.ObserveCompute(0, int64(20*time.Millisecond), 1) // strike 1
	if s := m.Snapshot(); s.Degraded {
		t.Fatalf("degraded after one strike, want %d strikes required", 2)
	}
	m.ObserveCompute(0, int64(20*time.Millisecond), 1) // strike 2: fires

	s := m.Snapshot()
	if !s.Degraded || len(s.Stragglers) != 1 || s.Stragglers[0] != 0 {
		t.Fatalf("snapshot after fire = %+v, want degraded with stragglers [0]", s)
	}
	if evs := m.Events(EventFilter{Type: EventStraggler}); len(evs) != 1 || evs[0].Worker != 0 {
		t.Fatalf("straggler events = %v", evs)
	}

	// The flight recorder captured a bundle keyed to the condition, with
	// the per-worker compute table naming the straggler.
	inc, ok := m.Incident(0)
	if !ok {
		t.Fatal("no incident captured")
	}
	if inc.Key != stragglerKey(0) || !inc.Open || inc.Trigger.Type != EventStraggler {
		t.Fatalf("incident = key %q open %v trigger %q", inc.Key, inc.Open, inc.Trigger.Type)
	}
	if len(inc.Workers) != 3 || !inc.Workers[0].Straggler || inc.Workers[1].Straggler {
		t.Fatalf("incident worker table = %+v", inc.Workers)
	}
	if len(inc.Events) == 0 || inc.Goroutines == "" {
		t.Fatalf("incident bundle missing payloads: %d events, %d goroutine bytes", len(inc.Events), len(inc.Goroutines))
	}

	// A continued straggle must not flap into more events or bundles.
	m.ObserveCompute(0, int64(20*time.Millisecond), 1)
	if evs := m.Events(EventFilter{Type: EventStraggler}); len(evs) != 1 {
		t.Fatalf("straggler re-fired while already flagged: %v", evs)
	}

	// Recovery: m consecutive healthy samples clear the flag, emit the
	// clear event, and close (not drop) the incident.
	m.ObserveCompute(0, int64(time.Millisecond), 1)
	m.ObserveCompute(0, int64(time.Millisecond), 1)
	if s := m.Snapshot(); s.Degraded || len(s.Stragglers) != 0 {
		t.Fatalf("snapshot after recovery = %+v, want healthy", s)
	}
	if evs := m.Events(EventFilter{Type: EventStragglerClear}); len(evs) != 1 {
		t.Fatalf("clear events = %v", evs)
	}
	refs := m.Incidents()
	if len(refs) != 1 || refs[0].Open {
		t.Fatalf("incident refs after clear = %+v, want one closed bundle", refs)
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

func TestStragglerNeedsPeersAndFloor(t *testing.T) {
	m, _ := newTestMonitor(nil)
	// A lone worker has no peers: never flagged however slow.
	for i := 0; i < 10; i++ {
		m.ObserveCompute(0, int64(time.Second), 1)
	}
	if s := m.Snapshot(); s.Degraded {
		t.Fatalf("lone worker flagged: %+v", s)
	}
	// Microsecond-scale skew below the absolute floor never flags either.
	m2, _ := newTestMonitor(nil)
	for i := 0; i < 10; i++ {
		m2.ObserveCompute(1, int64(10*time.Microsecond), 1)
		m2.ObserveCompute(0, int64(900*time.Microsecond), 1) // 90x peers, under the 1ms floor
	}
	if s := m2.Snapshot(); s.Degraded {
		t.Fatalf("sub-floor worker flagged: %+v", s)
	}
}

func TestMarkWorkerDeadUnflagsAndSkewsNoMedian(t *testing.T) {
	m, _ := newTestMonitor(func(c *Config) { c.StragglerSteps = 2 })
	feedHealthy(m, 1, 2)
	m.ObserveCompute(0, int64(20*time.Millisecond), 1)
	m.ObserveCompute(0, int64(20*time.Millisecond), 1)
	if !m.Snapshot().Degraded {
		t.Fatal("straggler did not fire")
	}
	m.MarkWorkerDead(0)
	s := m.Snapshot()
	if s.Degraded || len(s.ActiveIncidents) != 0 {
		t.Fatalf("dead worker still degrades: %+v", s)
	}
	// The dead worker's 20ms EWMA must not skew the live-set median:
	// worker 1 at 5ms against peer 2's 1ms has threshold 4x1ms = 4ms.
	m.ObserveCompute(1, int64(5*time.Millisecond), 1)
	m.ObserveCompute(1, int64(5*time.Millisecond), 1)
	if !m.Snapshot().Degraded {
		t.Fatal("dead worker's stale EWMA still lifted the peer median")
	}
	// Rejoin resets detector state from scratch.
	m.MarkWorkerLive(0)
	if tab := m.ComputeTable(); tab[0].Samples != 0 || tab[0].Dead {
		t.Fatalf("rejoined worker state = %+v", tab[0])
	}
}

func TestStallDetectorEdgeTriggered(t *testing.T) {
	m, _ := newTestMonitor(nil) // default 10s timeout
	m.CheckStall("draining", 15*time.Second, 0)
	if s := m.Snapshot(); !s.Degraded || !s.Stalled {
		t.Fatalf("snapshot = %+v, want stalled", s)
	}
	if evs := m.Events(EventFilter{Type: EventBarrierStall}); len(evs) != 1 || evs[0].Severity != SevCritical {
		t.Fatalf("barrier stall events = %v", evs)
	}
	// Still stalled: edge-triggered, no second event.
	m.CheckStall("draining", 16*time.Second, 0)
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
	m.CheckStall("run", 0, 20*time.Second)
	if evs := m.Events(EventFilter{Type: EventQueryStall}); len(evs) != 1 {
		t.Fatalf("superstep stall events = %v", evs)
	}
}

func TestFsyncSpikeDetector(t *testing.T) {
	m, clk := newTestMonitor(nil)
	for i := 0; i < 3; i++ {
		m.ObserveFsync(time.Millisecond)
	}
	m.ObserveFsync(500 * time.Millisecond) // >> 50ms floor and >> 8x the ~1ms EWMA
	if evs := m.Events(EventFilter{Type: EventFsyncSpike}); len(evs) != 1 {
		t.Fatalf("fsync spike events = %v", evs)
	}
	// A spike is a point event: a bundle is captured but nothing stays
	// degraded or open.
	if s := m.Snapshot(); s.Degraded || len(s.ActiveIncidents) != 0 {
		t.Fatalf("snapshot after spike = %+v", s)
	}
	refs := m.Incidents()
	if len(refs) != 1 || refs[0].Open || refs[0].Trigger != EventFsyncSpike {
		t.Fatalf("incident refs = %+v", refs)
	}
	// Back-to-back spikes are rate limited...
	m.ObserveFsync(800 * time.Millisecond)
	if evs := m.Events(EventFilter{Type: EventFsyncSpike}); len(evs) != 1 {
		t.Fatalf("spike not rate limited: %v", evs)
	}
	// ...until the limiter window passes.
	clk.Advance(time.Second)
	m.ObserveFsync(5 * time.Second)
	if evs := m.Events(EventFilter{Type: EventFsyncSpike}); len(evs) != 2 {
		t.Fatalf("spike after cooldown = %v", evs)
	}
}

func TestAdmissionSaturationHysteresis(t *testing.T) {
	m, _ := newTestMonitor(nil) // fires at 0.9, clears below 0.45
	m.ObserveAdmission(95, 100, 7)
	s := m.Snapshot()
	if !s.AdmissionSat || s.Degraded {
		t.Fatalf("snapshot = %+v, want saturated but NOT degraded (shedding is by design)", s)
	}
	if len(s.ActiveIncidents) != 1 {
		t.Fatalf("active incidents = %v, want the saturation bundle open", s.ActiveIncidents)
	}
	// Inside the hysteresis band nothing changes.
	m.ObserveAdmission(60, 100, 9)
	if s := m.Snapshot(); !s.AdmissionSat {
		t.Fatal("saturation cleared inside the hysteresis band")
	}
	m.ObserveAdmission(10, 100, 9)
	s = m.Snapshot()
	if s.AdmissionSat || len(s.ActiveIncidents) != 0 {
		t.Fatalf("snapshot after drain = %+v", s)
	}
	if evs := m.Events(EventFilter{Type: EventAdmissionClear}); len(evs) != 1 {
		t.Fatalf("clear events = %v", evs)
	}
}

func TestSLOAccounting(t *testing.T) {
	m, _ := newTestMonitor(func(c *Config) {
		c.SLOTarget = 100 * time.Millisecond
		c.SLOObjective = 0.9
		c.MaxTenants = 2
	})
	for i := 0; i < 8; i++ {
		m.ObserveRequest("a", 10*time.Millisecond, "completed")
	}
	m.ObserveRequest("a", 500*time.Millisecond, "completed") // over target: slow-ok
	m.ObserveRequest("a", time.Millisecond, "rejected")
	m.ObserveRequest("b", 5*time.Millisecond, "completed")
	m.ObserveRequest("c", 5*time.Millisecond, "failed") // over MaxTenants: folds into (other)

	v := m.SLOReport()
	if v.TargetMS != 100 || v.Objective != 0.9 {
		t.Fatalf("report header = %+v", v)
	}
	a, ok := v.Tenants["a"]
	if !ok {
		t.Fatalf("tenant a missing: %v", v.Tenants)
	}
	if a.Requests != 10 || a.Good != 8 || a.SlowOK != 1 || a.Rejected != 1 {
		t.Fatalf("tenant a counters = %+v", a.TenantSnapshot)
	}
	if a.GoodRatio != 0.8 {
		t.Fatalf("tenant a good ratio = %v", a.GoodRatio)
	}
	// 20% bad over a 10% budget: burning at 2x.
	if a.BurnRate < 1.99 || a.BurnRate > 2.01 {
		t.Fatalf("tenant a burn = %v, want 2", a.BurnRate)
	}
	if a.RecentBurnRate <= 0 {
		t.Fatalf("tenant a recent burn = %v, want > 0", a.RecentBurnRate)
	}
	if _, ok := v.Tenants["c"]; ok {
		t.Fatal("tenant c should have overflowed into (other)")
	}
	other, ok := v.Tenants[overflowTenant]
	if !ok || other.Failed != 1 {
		t.Fatalf("overflow tenant = %+v", other)
	}
	// Per-tenant metric families rendered with the client string escaped.
	var sb strings.Builder
	m.reg.WritePrometheus(&sb)
	for _, want := range []string{
		`qgraph_tenant_requests_total{tenant="a"} 10`,
		`qgraph_tenant_slo_burn{tenant="a"}`,
		`qgraph_tenant_request_seconds_count{tenant="a"} 10`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestIncidentRingBoundAndCooldown(t *testing.T) {
	m, clk := newTestMonitor(func(c *Config) { c.IncidentCapacity = 2 })
	stall := func() {
		m.CheckStall("move", 15*time.Second, 0)
		m.CheckStall("run", 0, 0)
	}
	stall()
	// Within the cooldown a recurrence logs events but skips re-capture.
	stall()
	if refs := m.Incidents(); len(refs) != 1 {
		t.Fatalf("cooldown not honored: %d bundles", len(refs))
	}
	clk.Advance(2 * time.Second)
	stall()
	clk.Advance(2 * time.Second)
	stall()
	refs := m.Incidents()
	if len(refs) != 2 {
		t.Fatalf("ring holds %d bundles, want capacity 2", len(refs))
	}
	if refs[0].ID <= refs[1].ID {
		t.Fatalf("refs not newest-first: %+v", refs)
	}
	// The oldest bundle was evicted: fetching it by id misses.
	if _, ok := m.Incident(refs[1].ID - 1); ok {
		t.Fatal("evicted incident still retrievable")
	}
	if inc, ok := m.Incident(0); !ok || inc.ID != refs[0].ID {
		t.Fatalf("latest lookup = %+v, %v", inc, ok)
	}
}

func TestRecordedLifecycleEvents(t *testing.T) {
	m, _ := newTestMonitor(nil)
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
// relies on: a deployment with -watchdog=false pays one nil check.
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.Record(EventRecovery, SevInfo, -1, "x", nil)
	m.ObserveCompute(0, 1e9, 1)
	m.ObserveFsync(time.Second)
	m.ObserveAdmission(1, 1, 0)
	m.ObserveRequest("t", time.Second, "completed")
	m.CheckStall("run", time.Hour, time.Hour)
	m.MarkWorkerDead(0)
	m.MarkWorkerLive(0)
	m.SetStatsFn(func() any { return nil })
	if s := m.Snapshot(); s.Degraded {
		t.Fatal("nil monitor degraded")
	}
	if evs := m.Events(EventFilter{}); evs != nil {
		t.Fatalf("nil monitor events = %v", evs)
	}
	if _, ok := m.Incident(0); ok {
		t.Fatal("nil monitor has incidents")
	}
	if refs := m.Incidents(); refs != nil {
		t.Fatalf("nil monitor incident refs = %v", refs)
	}
	if v := m.SLOReport(); v.Tenants != nil {
		t.Fatalf("nil monitor slo = %+v", v)
	}
	if tab := m.ComputeTable(); tab != nil {
		t.Fatalf("nil monitor compute table = %v", tab)
	}
}
