// Package health is the engine's active health layer: a watchdog engine
// fed by signals the rest of the system already produces (per-worker
// compute times from barrier reports, barrier-phase ages, WAL fsync
// latency, admission-queue depth), a bounded structured event log, per-
// tenant SLO accounting, and an incident flight recorder that captures a
// debug bundle at the moment a detector fires. Like the rest of the obs
// substrate, every entry point is nil-receiver safe so feed sites stay
// unconditional — a deployment with the watchdog disabled pays one nil
// check per signal.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"qgraph/internal/obs"
)

// Config tunes the detectors. Zero values select the defaults noted on
// each field.
type Config struct {
	// StragglerFactor is k: a worker is a straggler candidate when its
	// per-superstep compute exceeds k x the median of its live peers'
	// smoothed per-step compute. Default 4.
	StragglerFactor float64
	// StragglerSteps is m: candidates must stay over threshold for m
	// consecutive observations to fire (and under it for m to clear).
	// Default 3.
	StragglerSteps int
	// StragglerMinMS is an absolute per-step floor in milliseconds —
	// a worker is never flagged while its per-step compute is below it,
	// so microsecond-scale jitter on idle graphs cannot page anyone.
	// Default 1ms.
	StragglerMinMS float64
	// StallTimeout bounds how long a barrier phase (or an outstanding
	// superstep) may run before the deadline watchdog fires. Default 10s.
	StallTimeout time.Duration
	// FsyncSpikeMin is the absolute floor for the fsync spike detector;
	// FsyncSpikeFactor is the multiple of the smoothed fsync latency a
	// sample must exceed. A spike needs both. Defaults 50ms, 8x.
	FsyncSpikeMin    time.Duration
	FsyncSpikeFactor float64
	// AdmissionRatio is the queued/capacity ratio at which the admission
	// saturation detector fires; it clears below half the ratio.
	// Default 0.9.
	AdmissionRatio float64
	// SLOTarget is the per-request latency target; SLOObjective the
	// fraction of requests that must meet it (error budget = 1-objective).
	// Defaults 250ms, 0.99.
	SLOTarget    time.Duration
	SLOObjective float64
	// MaxTenants bounds the per-tenant SLO table; overflow tenants are
	// folded into "(other)". Default 64.
	MaxTenants int
	// EventCapacity and IncidentCapacity bound the rings. Defaults 512
	// events, 8 incidents.
	EventCapacity    int
	IncidentCapacity int
	// IncidentCooldown rate-limits re-capturing a bundle for the same
	// condition key. Default 30s.
	IncidentCooldown time.Duration
	// Clock substitutes a fake time source in tests.
	Clock func() time.Time
}

func (c *Config) fill() {
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = 4
	}
	if c.StragglerSteps <= 0 {
		c.StragglerSteps = 3
	}
	if c.StragglerMinMS <= 0 {
		c.StragglerMinMS = 1
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 10 * time.Second
	}
	if c.FsyncSpikeMin <= 0 {
		c.FsyncSpikeMin = 50 * time.Millisecond
	}
	if c.FsyncSpikeFactor <= 0 {
		c.FsyncSpikeFactor = 8
	}
	if c.AdmissionRatio <= 0 {
		c.AdmissionRatio = 0.9
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 250 * time.Millisecond
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.99
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.IncidentCooldown <= 0 {
		c.IncidentCooldown = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// workerState is one worker's straggler-detector state.
type workerState struct {
	ewmaMS   float64 // smoothed per-step compute, milliseconds
	samples  int64
	totalNS  int64
	steps    int64
	strikes  int // consecutive over-threshold observations
	recovers int // consecutive under-threshold observations while flagged
	flagged  bool
	dead     bool
}

// Monitor is the watchdog engine. One Monitor is shared by the
// controller (compute/fsync/stall/lifecycle feeds) and the serving layer
// (admission/SLO feeds, HTTP surfaces).
type Monitor struct {
	cfg    Config
	events *EventLog
	slo    *sloTable
	tracer *obs.Tracer

	mu        sync.Mutex
	workers   []workerState
	stallKind map[string]bool // active stall conditions by kind (barrier, superstep)
	admitSat  bool

	fsyncEWMA float64 // seconds
	fsyncN    int64
	lastFsync time.Time // last spike event, for rate limiting

	incidents   *incidentRing
	active      map[string]int64 // condition key -> open incident id
	lastCapture map[string]time.Time

	statsMu sync.Mutex
	statsFn func() any

	// metrics (nil without a registry)
	eventsTotal   map[Severity]*obs.Counter
	incidentsCtr  *obs.Counter
	stragglersCtr *obs.Counter
	reg           *obs.Registry
	workerGauges  []*obs.Gauge // per-worker EWMA ms/step
}

// New builds a Monitor and registers its metric families on o's
// registry (o may be nil — the monitor then keeps only its own state).
func New(cfg Config, o *obs.Obs) *Monitor {
	cfg.fill()
	m := &Monitor{
		cfg:         cfg,
		events:      NewEventLog(cfg.EventCapacity),
		tracer:      o.T(),
		stallKind:   make(map[string]bool),
		incidents:   newIncidentRing(cfg.IncidentCapacity),
		active:      make(map[string]int64),
		lastCapture: make(map[string]time.Time),
		reg:         o.M(),
	}
	m.slo = newSLOTable(cfg, o.M())
	if r := o.M(); r != nil {
		m.eventsTotal = map[Severity]*obs.Counter{
			SevInfo:     r.Counter("qgraph_health_events_total", `severity="info"`, "health events recorded, by severity"),
			SevWarn:     r.Counter("qgraph_health_events_total", `severity="warn"`, "health events recorded, by severity"),
			SevCritical: r.Counter("qgraph_health_events_total", `severity="critical"`, "health events recorded, by severity"),
		}
		m.incidentsCtr = r.Counter("qgraph_health_incidents_total", "", "incident bundles captured")
		m.stragglersCtr = r.Counter("qgraph_health_stragglers_total", "", "straggler detections fired")
		r.GaugeFunc("qgraph_health_degraded", "", "1 when a detector currently holds the node degraded", func() float64 {
			if m.Snapshot().Degraded {
				return 1
			}
			return 0
		})
	}
	return m
}

func (m *Monitor) now() time.Time { return m.cfg.Clock() }

// emit stamps and appends an event, mirrors it to the severity counter,
// and returns the stamped event.
func (m *Monitor) emit(e Event) Event {
	if e.At.IsZero() {
		e.At = m.now()
	}
	if e.Severity == "" {
		e.Severity = SevInfo
	}
	e = m.events.Append(e)
	m.eventsTotal[e.Severity].Inc()
	return e
}

// Record appends a lifecycle event (recovery episodes, snapshot cuts,
// codec rejects, ...) from code that observed it happen. worker is -1
// when the event is not worker-scoped.
func (m *Monitor) Record(typ string, sev Severity, worker int, msg string, fields map[string]any) {
	if m == nil {
		return
	}
	m.emit(Event{Type: typ, Severity: sev, Worker: worker, Msg: msg, Fields: fields})
}

// Events lists matching events newest-first.
func (m *Monitor) Events(f EventFilter) []Event {
	if m == nil {
		return nil
	}
	return m.events.List(f)
}

// SetStatsFn registers the callback that snapshots the serving layer's
// /stats view into incident bundles.
func (m *Monitor) SetStatsFn(fn func() any) {
	if m == nil {
		return
	}
	m.statsMu.Lock()
	m.statsFn = fn
	m.statsMu.Unlock()
}

// SLO returns the per-tenant accounting table (nil-safe).
func (m *Monitor) SLO() *sloTable {
	if m == nil {
		return nil
	}
	return m.slo
}

// ObserveRequest classifies one finished request into the tenant's SLO
// ledger. outcome is the serving layer's status string (completed,
// rejected, expired, failed).
func (m *Monitor) ObserveRequest(tenant string, d time.Duration, outcome string) {
	if m == nil {
		return
	}
	m.slo.observe(tenant, d, outcome)
}

// SLOReport snapshots the per-tenant SLO view for GET /slo.
func (m *Monitor) SLOReport() SLOView {
	if m == nil {
		return SLOView{}
	}
	return m.slo.report()
}

// ---------------------------------------------------------------------------
// Straggler detector

// ObserveCompute feeds one barrier report: worker spent computeNS of
// compute over steps supersteps. The detector compares the per-step
// sample against k x the median of the live peers' smoothed per-step
// compute; m consecutive over-threshold observations flag the worker,
// m consecutive under-threshold observations clear it.
func (m *Monitor) ObserveCompute(worker int, computeNS int64, steps int) {
	if m == nil || worker < 0 || steps <= 0 || computeNS < 0 {
		return
	}
	var fired, cleared Event
	var fire, clear bool

	m.mu.Lock()
	m.growLocked(worker)
	ws := &m.workers[worker]
	sampleMS := float64(computeNS) / float64(steps) / 1e6
	if ws.samples == 0 {
		ws.ewmaMS = sampleMS
	} else {
		ws.ewmaMS = 0.7*ws.ewmaMS + 0.3*sampleMS
	}
	ws.samples++
	ws.totalNS += computeNS
	ws.steps += int64(steps)
	ws.dead = false
	if g := m.workerGaugeLocked(worker); g != nil {
		g.Set(ws.ewmaMS)
	}

	med, peers := m.peerMedianLocked(worker)
	threshold := m.cfg.StragglerFactor * med
	if floor := m.cfg.StragglerMinMS; threshold < floor {
		threshold = floor
	}
	over := peers > 0 && sampleMS > threshold
	if over {
		ws.strikes++
		ws.recovers = 0
		if !ws.flagged && ws.strikes >= m.cfg.StragglerSteps {
			ws.flagged = true
			fire = true
			fired = Event{
				Type: EventStraggler, Severity: SevWarn, Worker: worker,
				Msg: fmt.Sprintf("worker %d is a persistent straggler: %.2fms/step > %.1fx peer median %.3fms for %d supersteps",
					worker, sampleMS, m.cfg.StragglerFactor, med, ws.strikes),
				Fields: map[string]any{
					"sample_ms_per_step": sampleMS,
					"peer_median_ms":     med,
					"threshold_ms":       threshold,
					"strikes":            ws.strikes,
				},
			}
		}
	} else {
		ws.strikes = 0
		if ws.flagged {
			ws.recovers++
			if ws.recovers >= m.cfg.StragglerSteps {
				ws.flagged = false
				ws.recovers = 0
				// Reset the smoothed baseline to the healthy sample so the
				// gauge does not advertise the incident for minutes after.
				ws.ewmaMS = sampleMS
				clear = true
				cleared = Event{
					Type: EventStragglerClear, Severity: SevInfo, Worker: worker,
					Msg: fmt.Sprintf("worker %d recovered: %.3fms/step back under threshold %.3fms", worker, sampleMS, threshold),
					Fields: map[string]any{
						"sample_ms_per_step": sampleMS,
						"threshold_ms":       threshold,
					},
				}
			}
		}
	}
	m.mu.Unlock()

	if fire {
		m.stragglersCtr.Inc()
		ev := m.emit(fired)
		m.openIncident(stragglerKey(worker), ev, true)
	}
	if clear {
		m.emit(cleared)
		m.closeIncident(stragglerKey(worker))
	}
}

func stragglerKey(worker int) string { return fmt.Sprintf("straggler/%d", worker) }

// growLocked extends the worker table to include id. Callers hold m.mu.
func (m *Monitor) growLocked(worker int) {
	for len(m.workers) <= worker {
		m.workers = append(m.workers, workerState{})
	}
}

// workerGaugeLocked lazily registers the per-worker EWMA gauge.
func (m *Monitor) workerGaugeLocked(worker int) *obs.Gauge {
	if m.reg == nil {
		return nil
	}
	for len(m.workerGauges) <= worker {
		id := len(m.workerGauges)
		m.workerGauges = append(m.workerGauges, m.reg.Gauge(
			"qgraph_worker_step_ewma_ms", fmt.Sprintf(`worker="%d"`, id),
			"smoothed per-superstep compute time per worker, milliseconds"))
	}
	return m.workerGauges[worker]
}

// peerMedianLocked returns the median smoothed per-step compute of the
// live workers other than `worker` that have reported at least once,
// plus how many such peers exist. Callers hold m.mu.
func (m *Monitor) peerMedianLocked(worker int) (median float64, peers int) {
	vals := make([]float64, 0, len(m.workers))
	for i := range m.workers {
		ws := &m.workers[i]
		if i == worker || ws.dead || ws.samples == 0 {
			continue
		}
		vals = append(vals, ws.ewmaMS)
	}
	if len(vals) == 0 {
		return 0, 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid], len(vals)
	}
	return (vals[mid-1] + vals[mid]) / 2, len(vals)
}

// MarkWorkerDead excludes a dead worker from the peer median and from
// straggler candidacy (its last EWMA would otherwise keep skewing the
// live-set baseline through recovery).
func (m *Monitor) MarkWorkerDead(worker int) {
	if m == nil || worker < 0 {
		return
	}
	m.mu.Lock()
	m.growLocked(worker)
	ws := &m.workers[worker]
	ws.dead = true
	wasFlagged := ws.flagged
	ws.flagged = false
	ws.strikes, ws.recovers = 0, 0
	m.mu.Unlock()
	if wasFlagged {
		m.closeIncident(stragglerKey(worker))
	}
}

// MarkWorkerLive re-admits a recovered or respawned worker; its
// detector state restarts from scratch.
func (m *Monitor) MarkWorkerLive(worker int) {
	if m == nil || worker < 0 {
		return
	}
	m.mu.Lock()
	m.growLocked(worker)
	m.workers[worker] = workerState{}
	m.mu.Unlock()
}

// WorkerCompute is one row of the per-worker compute table embedded in
// incident bundles.
type WorkerCompute struct {
	Worker     int     `json:"worker"`
	Dead       bool    `json:"dead,omitempty"`
	Straggler  bool    `json:"straggler,omitempty"`
	Strikes    int     `json:"strikes,omitempty"`
	Samples    int64   `json:"samples"`
	Steps      int64   `json:"steps"`
	ComputeMS  float64 `json:"compute_ms_total"`
	EWMAStepMS float64 `json:"ewma_ms_per_step"`
}

// ComputeTable snapshots every worker's detector state.
func (m *Monitor) ComputeTable() []WorkerCompute {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerCompute, len(m.workers))
	for i := range m.workers {
		ws := &m.workers[i]
		out[i] = WorkerCompute{
			Worker:     i,
			Dead:       ws.dead,
			Straggler:  ws.flagged,
			Strikes:    ws.strikes,
			Samples:    ws.samples,
			Steps:      ws.steps,
			ComputeMS:  float64(ws.totalNS) / 1e6,
			EWMAStepMS: ws.ewmaMS,
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Stall detector

// CheckStall is the deadline watchdog, called once per controller tick.
// phase is the controller's current phase name; phaseAge is how long a
// non-run phase has been open (0 while running); oldestRelease is the
// age of the oldest outstanding superstep barrier (0 when none).
func (m *Monitor) CheckStall(phase string, phaseAge, oldestRelease time.Duration) {
	if m == nil {
		return
	}
	m.checkStallKind("barrier", phaseAge, EventBarrierStall,
		fmt.Sprintf("barrier phase %q open for %s (limit %s)", phase, phaseAge.Round(time.Millisecond), m.cfg.StallTimeout),
		map[string]any{"phase": phase, "age_ms": durMS(phaseAge)})
	m.checkStallKind("superstep", oldestRelease, EventQueryStall,
		fmt.Sprintf("oldest outstanding superstep unanswered for %s (limit %s)", oldestRelease.Round(time.Millisecond), m.cfg.StallTimeout),
		map[string]any{"age_ms": durMS(oldestRelease)})
}

func (m *Monitor) checkStallKind(kind string, age time.Duration, typ, msg string, fields map[string]any) {
	stalled := age > m.cfg.StallTimeout
	m.mu.Lock()
	was := m.stallKind[kind]
	m.stallKind[kind] = stalled
	m.mu.Unlock()
	key := "stall/" + kind
	if stalled && !was {
		ev := m.emit(Event{Type: typ, Severity: SevCritical, Worker: -1, Msg: msg, Fields: fields})
		m.openIncident(key, ev, true)
	}
	if !stalled && was {
		m.emit(Event{Type: EventStallClear, Severity: SevInfo, Worker: -1,
			Msg: "stall cleared: " + kind, Fields: map[string]any{"kind": kind}})
		m.closeIncident(key)
	}
}

// ---------------------------------------------------------------------------
// Fsync spike detector

// ObserveFsync feeds one WAL group-commit fsync duration. A sample is a
// spike when it exceeds both the absolute floor and factor x the
// smoothed latency seen so far.
func (m *Monitor) ObserveFsync(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	secs := d.Seconds()
	var fire bool
	var ev Event
	m.mu.Lock()
	prev := m.fsyncEWMA
	if m.fsyncN == 0 {
		m.fsyncEWMA = secs
	} else {
		m.fsyncEWMA = 0.9*m.fsyncEWMA + 0.1*secs
	}
	m.fsyncN++
	if m.fsyncN > 1 && secs > m.cfg.FsyncSpikeMin.Seconds() && secs > m.cfg.FsyncSpikeFactor*prev {
		now := m.now()
		if now.Sub(m.lastFsync) >= m.cfg.IncidentCooldown/6 { // rate limit: at most ~1 per 5s at defaults
			m.lastFsync = now
			fire = true
			ev = Event{
				Type: EventFsyncSpike, Severity: SevWarn, Worker: -1,
				Msg: fmt.Sprintf("WAL fsync took %s (smoothed %.2fms, spike factor %.0fx)",
					d.Round(time.Microsecond), prev*1e3, m.cfg.FsyncSpikeFactor),
				Fields: map[string]any{"fsync_ms": secs * 1e3, "ewma_ms": prev * 1e3},
			}
		}
	}
	m.mu.Unlock()
	if fire {
		m.openIncident("fsync", m.emit(ev), false)
	}
}

// ---------------------------------------------------------------------------
// Admission saturation detector

// ObserveAdmission feeds the scheduler's current queue depth and
// capacity plus the cumulative 429 count; the serving layer calls it on
// the request path and on /healthz so saturation clears when traffic
// stops. Fires at queued/capacity >= AdmissionRatio, clears below half
// that ratio.
func (m *Monitor) ObserveAdmission(queued, maxQueue int, rejectedTotal int64) {
	if m == nil || maxQueue <= 0 {
		return
	}
	ratio := float64(queued) / float64(maxQueue)
	var fire, clear bool
	var ev Event
	m.mu.Lock()
	if !m.admitSat && ratio >= m.cfg.AdmissionRatio {
		m.admitSat = true
		fire = true
		ev = Event{
			Type: EventAdmissionSat, Severity: SevWarn, Worker: -1,
			Msg: fmt.Sprintf("admission queue %d/%d (%.0f%% full), %d rejections so far", queued, maxQueue, ratio*100, rejectedTotal),
			Fields: map[string]any{
				"queued": queued, "max_queue": maxQueue,
				"ratio": ratio, "rejected_total": rejectedTotal,
			},
		}
	} else if m.admitSat && ratio < m.cfg.AdmissionRatio/2 {
		m.admitSat = false
		clear = true
	}
	m.mu.Unlock()
	if fire {
		m.openIncident("admission", m.emit(ev), true)
	}
	if clear {
		m.emit(Event{Type: EventAdmissionClear, Severity: SevInfo, Worker: -1,
			Msg:    fmt.Sprintf("admission queue drained to %d/%d", queued, maxQueue),
			Fields: map[string]any{"queued": queued, "max_queue": maxQueue}})
		m.closeIncident("admission")
	}
}

// ---------------------------------------------------------------------------
// Health snapshot

// HealthSnapshot is what /healthz folds into its response: which
// detectors currently hold the node degraded.
type HealthSnapshot struct {
	Degraded        bool    `json:"degraded"`
	Stragglers      []int   `json:"stragglers,omitempty"`
	Stalled         bool    `json:"stalled,omitempty"`
	AdmissionSat    bool    `json:"admission_saturated,omitempty"`
	ActiveIncidents []int64 `json:"active_incidents,omitempty"`
}

// Snapshot reports the detectors' current verdict. Degraded is driven
// by conditions that impair service: flagged stragglers and stalls.
// Admission saturation is surfaced but does not degrade — the scheduler
// shedding load is the system working as designed.
func (m *Monitor) Snapshot() HealthSnapshot {
	if m == nil {
		return HealthSnapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var s HealthSnapshot
	for i := range m.workers {
		if m.workers[i].flagged {
			s.Stragglers = append(s.Stragglers, i)
		}
	}
	for _, stalled := range m.stallKind {
		if stalled {
			s.Stalled = true
		}
	}
	s.AdmissionSat = m.admitSat
	for _, id := range m.active {
		s.ActiveIncidents = append(s.ActiveIncidents, id)
	}
	sort.Slice(s.ActiveIncidents, func(i, j int) bool { return s.ActiveIncidents[i] < s.ActiveIncidents[j] })
	s.Degraded = len(s.Stragglers) > 0 || s.Stalled
	return s
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
