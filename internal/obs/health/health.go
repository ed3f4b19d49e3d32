// Package health is the engine's active health layer: a straggler
// detector fed by the per-worker compute and work of barrier reports, a
// stall detector fed by barrier-phase ages, and a bounded structured
// event log of detections and lifecycle events. Together they answer the
// one question the hybrid barrier raises: which worker is holding queries
// back, and is a barrier stuck. Like the rest of the obs substrate, every
// entry point is nil-receiver safe so feed sites stay unconditional.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"qgraph/internal/obs"
)

// The detectors' thresholds. One value of each has ever been in use.
const (
	// stragglerFactor is k: a worker is a straggler candidate when its
	// smoothed compute per processed vertex exceeds k x the median of its
	// live peers'. Per vertex, not per superstep: under locality one
	// worker may compute a query's whole frontier while a peer's steps
	// process a vertex or two, and neither is slow.
	stragglerFactor = 4
	// stragglerSteps is m: candidates must stay over threshold for m
	// consecutive observations to fire (and under it for m to clear).
	stragglerSteps = 3
	// stragglerMinMS is an absolute per-step floor in milliseconds: a
	// worker is never flagged while its per-step compute is below it, so
	// microsecond-scale jitter on idle graphs cannot page anyone.
	stragglerMinMS = 1.0
	// stragglerIdle clears every straggler flag once no worker reported
	// compute for this long: an idle deployment runs no supersteps, so
	// none could clear a flag the last load raised.
	stragglerIdle = 30 * time.Second
	// stallTimeout bounds how long a barrier phase (or an outstanding
	// superstep) may run before the stall detector fires.
	stallTimeout = 10 * time.Second
)

// Config configures a Monitor.
type Config struct {
	// Clock substitutes a fake time source in tests (default time.Now).
	Clock func() time.Time
}

// workerState is one worker's straggler-detector state.
type workerState struct {
	ewmaMS float64 // smoothed per-step compute, milliseconds (the gauge)
	// ewmaNS and ewmaWork smooth each report's compute, in nanoseconds,
	// and the vertices it processed. Their ratio is the worker's compute
	// per vertex weighted by work, so a report that processed little
	// moves it little.
	ewmaNS, ewmaWork float64
	samples          int64
	strikes          int // consecutive over-threshold observations
	recovers         int // consecutive under-threshold observations while flagged
	flagged          bool
	dead             bool
}

// Monitor is the watchdog engine. One Monitor is shared by the
// controller (compute/stall/lifecycle feeds) and the serving layer
// (/healthz and /events).
type Monitor struct {
	clock  func() time.Time
	events *EventLog

	mu         sync.Mutex
	workers    []workerState
	lastReport time.Time       // of any worker's compute
	stallKind  map[string]bool // active stall conditions by kind (barrier, superstep)

	// metrics (nil without a registry)
	eventsTotal   map[Severity]*obs.Counter
	stragglersCtr *obs.Counter
	reg           *obs.Registry
	workerGauges  []*obs.Gauge // per-worker EWMA ms/step
}

// New builds a Monitor and registers its metric families on o's
// registry (o may be nil — the monitor then keeps only its own state).
func New(cfg Config, o *obs.Obs) *Monitor {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	m := &Monitor{
		clock:     cfg.Clock,
		events:    newEventLog(eventRing),
		stallKind: make(map[string]bool),
		reg:       o.M(),
	}
	if r := o.M(); r != nil {
		m.eventsTotal = map[Severity]*obs.Counter{
			SevInfo:     r.Counter("qgraph_health_events_total", `severity="info"`, "health events recorded, by severity"),
			SevWarn:     r.Counter("qgraph_health_events_total", `severity="warn"`, "health events recorded, by severity"),
			SevCritical: r.Counter("qgraph_health_events_total", `severity="critical"`, "health events recorded, by severity"),
		}
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

// emit stamps and appends an event and mirrors it to the severity
// counter.
func (m *Monitor) emit(e Event) {
	if e.At.IsZero() {
		e.At = m.clock()
	}
	if e.Severity == "" {
		e.Severity = SevInfo
	}
	e = m.events.Append(e)
	m.eventsTotal[e.Severity].Inc()
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

// ---------------------------------------------------------------------------
// Straggler detector

// ObserveCompute feeds one barrier report: worker spent computeNS of
// compute on vertices vertices over steps supersteps. A report is over
// the threshold when its per-step compute passes the floor and the
// worker's smoothed compute per vertex exceeds k x the median of its
// working peers'; m consecutive over-threshold observations flag the
// worker, m consecutive under-threshold observations clear it.
func (m *Monitor) ObserveCompute(worker int, computeNS int64, steps, vertices int) {
	if m == nil || worker < 0 || steps <= 0 || computeNS < 0 || vertices < 0 {
		return
	}
	var fired, cleared Event
	var fire, clear bool

	m.mu.Lock()
	m.lastReport = m.clock()
	m.growLocked(worker)
	ws := &m.workers[worker]
	sampleMS := float64(computeNS) / float64(steps) / 1e6
	if ws.samples == 0 {
		ws.ewmaMS, ws.ewmaNS, ws.ewmaWork = sampleMS, float64(computeNS), float64(vertices)
	} else {
		ws.ewmaMS = 0.7*ws.ewmaMS + 0.3*sampleMS
		ws.ewmaNS = 0.7*ws.ewmaNS + 0.3*float64(computeNS)
		ws.ewmaWork = 0.7*ws.ewmaWork + 0.3*float64(vertices)
	}
	ws.samples++
	ws.dead = false
	if g := m.workerGaugeLocked(worker); g != nil {
		g.Set(ws.ewmaMS)
	}

	rate := ws.nsPerVertex() / 1e3
	med, peers := m.peerMedianLocked(worker)
	threshold := stragglerFactor * med
	over := peers > 0 && sampleMS > stragglerMinMS && rate > threshold
	if over {
		ws.strikes++
		ws.recovers = 0
		if !ws.flagged && ws.strikes >= stragglerSteps {
			ws.flagged = true
			fire = true
			fired = Event{
				Type: EventStraggler, Severity: SevWarn, Worker: worker,
				Msg: fmt.Sprintf("worker %d is a persistent straggler: %.2fµs/vertex > %.1fx peer median %.2fµs/vertex for %d reports (%.2fms/step)",
					worker, rate, float64(stragglerFactor), med, ws.strikes, sampleMS),
				Fields: map[string]any{
					"sample_ms_per_step": sampleMS,
					"us_per_vertex":      rate,
					"peer_median_us":     med,
					"threshold_us":       threshold,
					"strikes":            ws.strikes,
				},
			}
		}
	} else {
		ws.strikes = 0
		if ws.flagged {
			ws.recovers++
			if ws.recovers >= stragglerSteps {
				ws.flagged = false
				ws.recovers = 0
				// Reset the smoothed baseline to the healthy sample so the
				// gauge does not advertise the straggle for minutes after.
				ws.ewmaMS = sampleMS
				clear = true
				cleared = Event{
					Type: EventStragglerClear, Severity: SevInfo, Worker: worker,
					Msg: fmt.Sprintf("worker %d recovered: %.2fµs/vertex, %.2fms/step", worker, rate, sampleMS),
					Fields: map[string]any{
						"sample_ms_per_step": sampleMS,
						"us_per_vertex":      rate,
						"threshold_us":       threshold,
					},
				}
			}
		}
	}
	m.mu.Unlock()

	if fire {
		m.stragglersCtr.Inc()
		m.emit(fired)
	}
	if clear {
		m.emit(cleared)
	}
}

// clearIdle clears every straggler flag once no worker reported compute
// for stragglerIdle, and records each clear.
func (m *Monitor) clearIdle() {
	var cleared []int
	m.mu.Lock()
	if idle := m.clock().Sub(m.lastReport); idle >= stragglerIdle {
		for i := range m.workers {
			if ws := &m.workers[i]; ws.flagged {
				ws.flagged, ws.strikes, ws.recovers = false, 0, 0
				cleared = append(cleared, i)
			}
		}
	}
	m.mu.Unlock()
	for _, w := range cleared {
		m.emit(Event{
			Type: EventStragglerClear, Severity: SevInfo, Worker: w,
			Msg:    fmt.Sprintf("worker %d cleared: no compute reported for %s", w, stragglerIdle),
			Fields: map[string]any{"idle_ms": durMS(stragglerIdle)},
		})
	}
}

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

// nsPerVertex is the worker's smoothed compute per processed vertex, in
// nanoseconds; below one vertex a report, its compute counts as one
// vertex's.
func (ws *workerState) nsPerVertex() float64 { return ws.ewmaNS / max(ws.ewmaWork, 1) }

// peerMedianLocked returns the median smoothed compute per vertex, in
// microseconds, of the live workers other than `worker` whose reports
// processed at least one vertex each, smoothed, plus how many such peers
// exist. A peer whose steps did no work has no rate to compare with.
// Callers hold m.mu.
func (m *Monitor) peerMedianLocked(worker int) (median float64, peers int) {
	vals := make([]float64, 0, len(m.workers))
	for i := range m.workers {
		ws := &m.workers[i]
		if i == worker || ws.dead || ws.samples == 0 || ws.ewmaWork < 1 {
			continue
		}
		vals = append(vals, ws.nsPerVertex()/1e3)
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
	ws.flagged = false
	ws.strikes, ws.recovers = 0, 0
	m.mu.Unlock()
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
		fmt.Sprintf("barrier phase %q open for %s (limit %s)", phase, phaseAge.Round(time.Millisecond), stallTimeout),
		map[string]any{"phase": phase, "age_ms": durMS(phaseAge)})
	m.checkStallKind("superstep", oldestRelease, EventQueryStall,
		fmt.Sprintf("oldest outstanding superstep unanswered for %s (limit %s)", oldestRelease.Round(time.Millisecond), stallTimeout),
		map[string]any{"age_ms": durMS(oldestRelease)})
}

func (m *Monitor) checkStallKind(kind string, age time.Duration, typ, msg string, fields map[string]any) {
	stalled := age > stallTimeout
	m.mu.Lock()
	was := m.stallKind[kind]
	m.stallKind[kind] = stalled
	m.mu.Unlock()
	if stalled && !was {
		m.emit(Event{Type: typ, Severity: SevCritical, Worker: -1, Msg: msg, Fields: fields})
	}
	if !stalled && was {
		m.emit(Event{Type: EventStallClear, Severity: SevInfo, Worker: -1,
			Msg: "stall cleared: " + kind, Fields: map[string]any{"kind": kind}})
	}
}

// ---------------------------------------------------------------------------
// Health snapshot

// HealthSnapshot is what /healthz folds into its response: which
// detectors currently hold the node degraded.
type HealthSnapshot struct {
	Degraded   bool  `json:"degraded"`
	Stragglers []int `json:"stragglers,omitempty"`
	Stalled    bool  `json:"stalled,omitempty"`
}

// Snapshot reports the detectors' current verdict: degraded while a
// worker is flagged as a straggler or a barrier is stalled. A flag lasts
// until m healthy reports of its worker, or until no worker reported for
// stragglerIdle.
func (m *Monitor) Snapshot() HealthSnapshot {
	if m == nil {
		return HealthSnapshot{}
	}
	m.clearIdle()
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
	s.Degraded = len(s.Stragglers) > 0 || s.Stalled
	return s
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
