package controller

import (
	"fmt"
	"sync/atomic"
	"time"

	"qgraph/internal/obs"
	"qgraph/internal/protocol"
)

// This file wires the controller into the observability substrate
// (internal/obs): per-query engine/superstep spans with per-worker
// children, barrier-phase spans and histograms, commit / WAL-fsync /
// snapshot-cut / recovery instrumentation. Everything degrades to no-ops
// when Config.Obs is nil — the hot path pays one nil check.

// phaseName names a barrier phase for metrics labels and span names.
func phaseName(p phase) string {
	return [...]string{"run", "quiesce", "stop", "move", "recovery"}[p]
}

// barrierBuckets resolve the short phase durations the global barrier
// produces (defaults start at 500µs, far above a quiesce on an idle
// engine).
var barrierBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// fsyncBatchBuckets resolve group-commit amortization: batches per fsync,
// up to the WAL's group cap.
var fsyncBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// ctlObs bundles the controller's metric instruments. A nil *ctlObs (no
// Config.Obs) makes every method a no-op.
type ctlObs struct {
	o *obs.Obs

	commitSeconds   *obs.Histogram
	walFsyncSeconds *obs.Histogram
	fsyncBatchSize  *obs.Histogram
	snapCutSeconds  *obs.Histogram
	barrierSeconds  map[phase]*obs.Histogram

	supersteps    []*obs.Counter // collected supersteps, per worker
	activeVerts   []*obs.Gauge   // last reported active vertices, per worker
	scopeVerts    []*obs.Gauge   // last reported total scope, per worker
	computeNS     []atomic.Int64 // cumulative compute wall time, per worker
	pingRTT       []*obs.Gauge   // last heartbeat round-trip time, per worker
	barrierCount  *obs.Counter
	barrierMoves  *obs.Counter
	walFsyncCount *obs.Counter
}

// newCtlObs registers the controller's instruments. Func-backed
// instruments read the exact sources /stats serializes (WAL stats,
// recovery counters, graph version), so the two endpoints cannot drift.
func newCtlObs(c *Controller) *ctlObs {
	o := c.cfg.Obs
	if o == nil || o.Metrics == nil {
		return nil
	}
	m := o.Metrics
	co := &ctlObs{
		o:               o,
		commitSeconds:   m.Histogram("qgraph_commit_seconds", "", "end-to-end delta commit latency (seal to applied)", nil),
		walFsyncSeconds: m.Histogram("qgraph_wal_fsync_seconds", "", "WAL append+fsync latency per committed batch", barrierBuckets),
		fsyncBatchSize:  m.Histogram("qgraph_wal_fsync_batch_size", "", "mutation batches amortized per WAL group-commit fsync", fsyncBatchBuckets),
		snapCutSeconds:  m.Histogram("qgraph_snapshot_cut_seconds", "", "background snapshot cut duration (materialize+persist)", nil),
		barrierSeconds:  make(map[phase]*obs.Histogram),
		barrierCount:    m.Counter("qgraph_barrier_total", "", "global STOP/START barriers executed"),
		barrierMoves:    m.Counter("qgraph_barrier_moves_total", "", "scope-move directives executed under barriers"),
		walFsyncCount:   m.Counter("qgraph_wal_fsync_total", "", "WAL fsyncs performed on the commit path"),
		supersteps:      make([]*obs.Counter, c.cfg.K),
		activeVerts:     make([]*obs.Gauge, c.cfg.K),
		scopeVerts:      make([]*obs.Gauge, c.cfg.K),
		computeNS:       make([]atomic.Int64, c.cfg.K),
		pingRTT:         make([]*obs.Gauge, c.cfg.K),
	}
	for _, p := range []phase{phaseQuiesce, phaseStopping, phaseMoving, phaseRecover} {
		co.barrierSeconds[p] = m.Histogram("qgraph_barrier_phase_seconds",
			`phase="`+phaseName(p)+`"`, "time spent per global-barrier phase", barrierBuckets)
	}
	for w := 0; w < c.cfg.K; w++ {
		lbl := fmt.Sprintf(`worker="%d"`, w)
		co.supersteps[w] = m.Counter("qgraph_worker_supersteps_total", lbl,
			"supersteps collected from each worker's barrier reports")
		co.activeVerts[w] = m.Gauge("qgraph_worker_active_vertices", lbl,
			"active vertices in the worker's last reported superstep")
		co.scopeVerts[w] = m.Gauge("qgraph_worker_scope_vertices", lbl,
			"vertices in the worker's last reported query scope")
		co.pingRTT[w] = m.Gauge("qgraph_worker_ping_rtt_seconds", lbl,
			"heartbeat round-trip time of the worker's last current-round pong")
		wi := w
		m.CounterFunc("qgraph_worker_compute_seconds_total", lbl,
			"cumulative superstep compute wall time reported by the worker",
			func() float64 { return float64(co.computeNS[wi].Load()) / 1e9 })
	}
	m.GaugeFunc("qgraph_graph_version", "", "committed graph version (mutation batches applied)",
		func() float64 { return float64(c.GraphVersion()) })
	m.GaugeFunc("qgraph_repartition_epoch", "", "executed repartitioning barriers",
		func() float64 { return float64(c.repartEpoch.Load()) })
	m.CounterFunc("qgraph_recovery_episodes_total", "", "completed worker-failure recovery episodes",
		func() float64 { return float64(c.RecoveryStats().Recoveries) })
	m.GaugeFunc("qgraph_delta_log_ops", "", "committed ops retained in the delta log since the durable checkpoint",
		func() float64 { return float64(c.logStats.Load().DeltaLogOps) })
	m.GaugeFunc("qgraph_wal_appended_bytes_total", "", "bytes appended to the durable WAL",
		func() float64 { return float64(c.WALStats().AppendedBytes) })
	m.GaugeFunc(`qgraph_snapshot_last_cut_age_seconds`, "", "seconds since the last completed snapshot cut (-1 before the first)",
		func() float64 {
			ns := c.logStats.Load().LastCutUnixNS
			if ns == 0 {
				return -1
			}
			return c.cfg.Clock().Sub(time.Unix(0, ns)).Seconds()
		})
	return co
}

// observeRTT records a worker's heartbeat round-trip time.
func (co *ctlObs) observeRTT(w int, rtt time.Duration) {
	if co == nil || w < 0 || w >= len(co.pingRTT) {
		return
	}
	co.pingRTT[w].Set(rtt.Seconds())
}

// onReport folds one BarrierSynch into the per-worker instruments.
func (co *ctlObs) onReport(m *protocol.BarrierSynch) {
	if co == nil {
		return
	}
	w := int(m.W)
	if w < 0 || w >= len(co.supersteps) {
		return
	}
	co.supersteps[w].Add(int64(m.Step-m.FromStep) + 1)
	co.activeVerts[w].Set(float64(m.Processed))
	co.scopeVerts[w].Set(float64(m.ScopeSize))
	co.computeNS[w].Add(m.ComputeNS)
}

// tracer returns the process tracer, nil when tracing is off.
func (c *Controller) tracer() *obs.Tracer {
	if c.cfg.Obs == nil {
		return nil
	}
	return c.cfg.Obs.Tracer
}

// leftPhase follows every transition of adapt that enters a phase: it
// charges the time spent in prev, the phase left, to the phase histogram
// and — for every active traced query — to a "barrier/<phase>" span under
// its engine span, and starts the clock of the phase entered.
func (c *Controller) leftPhase(prev phase) {
	now := c.cfg.Clock()
	next := c.adapt.phase
	if prev != next && prev != phaseRun {
		if co := c.obs; co != nil {
			if h := co.barrierSeconds[prev]; h != nil {
				h.Observe(now.Sub(c.phaseStart).Seconds())
			}
		}
		c.spanActiveQueries("barrier/"+phaseName(prev), c.phaseStart, now, nil)
	}
	if prev == phaseRun && next != phaseRun {
		if co := c.obs; co != nil {
			co.barrierCount.Inc()
		}
	}
	c.phaseStart = now
}

// spanActiveQueries attaches a completed span to every active traced
// query, under its engine span — barrier phases and snapshot cuts are
// engine-global events, so each in-flight query's trace shows where its
// wall time went.
func (c *Controller) spanActiveQueries(name string, start, end time.Time, attrs map[string]any) {
	if c.tracer() == nil {
		return
	}
	for _, ctl := range c.queries {
		if ctl.trace == nil {
			continue
		}
		ctl.trace.SpanAt(ctl.engSpan, name, start, end, attrs)
	}
}

// beginQueryTrace looks up the trace the serving layer bound to this
// query and opens its engine span (the controller-side share of the
// tree).
func (c *Controller) beginQueryTrace(ctl *qctl) {
	tr := c.tracer().ByQuery(int64(ctl.spec.ID))
	if tr == nil {
		return
	}
	ctl.trace = tr
	ctl.engSpan = tr.StartSpan(nil, "engine")
}

// beginStepSpan opens the span for the superstep just released.
func (c *Controller) beginStepSpan(ctl *qctl, step int32) {
	if ctl.trace == nil {
		return
	}
	ctl.stepSpan = ctl.trace.StartSpan(ctl.engSpan, fmt.Sprintf("superstep %d", step))
}

// endStepSpan closes the current superstep span, adding one child span
// per worker report carrying the worker's share of the computation
// (compute time, processed vertices, batches sent). Worker spans are
// placed at the superstep's start; their durations are the worker-side
// measurements shipped in BarrierSynch.ComputeNS.
func (c *Controller) endStepSpan(ctl *qctl) {
	if ctl.stepSpan == nil {
		return
	}
	now := c.cfg.Clock()
	for w, r := range ctl.reports {
		var sent int32
		for _, nb := range r.SentBatches {
			sent += nb
		}
		start := now.Add(-time.Duration(r.ComputeNS))
		ctl.trace.SpanAt(ctl.stepSpan, fmt.Sprintf("worker %d", w), start, now, map[string]any{
			"processed":    r.Processed,
			"sent_batches": sent,
			"local_iters":  r.LocalIters,
		})
	}
	ctl.stepSpan.SetAttr("step", ctl.step)
	ctl.stepSpan.End()
	ctl.stepSpan = nil
}

// abortStepSpan closes a superstep span whose reports never arrive
// (recovery restart, a query ended mid-step), so endStepSpan never would.
// Without it the span stays open forever in the completed trace: a leak,
// and a lie about where time went.
func (c *Controller) abortStepSpan(ctl *qctl, reason string) {
	if ctl.stepSpan == nil {
		return
	}
	ctl.stepSpan.SetAttr("aborted", reason)
	ctl.stepSpan.End()
	ctl.stepSpan = nil
}

// endQueryTrace closes the engine span when the query ends, and the span
// of a superstep it ended with outstanding.
func (c *Controller) endQueryTrace(ctl *qctl, res Result) {
	if ctl.trace == nil {
		return
	}
	c.abortStepSpan(ctl, res.Reason.String())
	ctl.engSpan.SetAttr("reason", res.Reason.String())
	ctl.engSpan.SetAttr("supersteps", res.Supersteps)
	ctl.engSpan.SetAttr("local_iters", res.LocalIters)
	ctl.engSpan.SetAttr("touched", res.Touched)
	ctl.engSpan.SetAttr("workers", res.Workers)
	ctl.engSpan.End()
}
