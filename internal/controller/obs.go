package controller

import (
	"fmt"
	"time"

	"qgraph/internal/obs"
	"qgraph/internal/query"
)

// This file wires the controller into the observability substrate
// (internal/obs): per-query engine/superstep spans with per-worker
// children, barrier-phase spans, and the controller's /metrics families —
// the paper's query locality as per-kind counters, repartitions, and
// heartbeat round trips. Everything degrades to no-ops when Config.Obs is
// nil — the hot path pays one nil check.

// phaseName names a barrier phase for span names.
func phaseName(p phase) string {
	return [...]string{"run", "quiesce", "stop", "move", "recovery"}[p]
}

// kindCounters count the finished queries of one kind and their
// supersteps: local over all supersteps is the kind's query locality
// (paper Sec. 4), supersteps over queries its mean superstep count.
type kindCounters struct {
	queries, supersteps, local *obs.Counter
}

// ctlObs bundles the controller's metric instruments. A nil *ctlObs (no
// Config.Obs) makes every method a no-op.
type ctlObs struct {
	byKind  map[query.Kind]kindCounters
	pingRTT []*obs.Gauge // last heartbeat round-trip time, per worker
}

// newCtlObs registers the controller's instruments, every series at
// construction so a scrape shows each kind at zero before its first query.
func newCtlObs(c *Controller) *ctlObs {
	o := c.cfg.Obs
	if o == nil || o.Metrics == nil {
		return nil
	}
	m := o.Metrics
	co := &ctlObs{byKind: make(map[query.Kind]kindCounters), pingRTT: make([]*obs.Gauge, c.cfg.K)}
	for _, k := range []query.Kind{query.KindSSSP, query.KindPOI, query.KindBFS, query.KindPageRank} {
		lbl := `kind="` + k.String() + `"`
		co.byKind[k] = kindCounters{
			queries: m.Counter("qgraph_controller_queries_total", lbl,
				"queries finished by their workers (cancelled ones aside)"),
			supersteps: m.Counter("qgraph_controller_supersteps_total", lbl,
				"supersteps of the finished queries"),
			local: m.Counter("qgraph_controller_local_supersteps_total", lbl,
				"supersteps of the finished queries that ran on one worker"),
		}
	}
	for w := range c.cfg.K {
		co.pingRTT[w] = m.Gauge("qgraph_worker_ping_rtt_seconds", fmt.Sprintf(`worker="%d"`, w),
			"heartbeat round-trip time of the worker's last current-round pong")
	}
	m.CounterFunc("qgraph_controller_repartitions_total", "", "executed global barriers (scope moves, recovery rounds)",
		func() float64 { return float64(c.RepartitionEpoch()) })
	return co
}

// observeRTT records a worker's heartbeat round-trip time.
func (co *ctlObs) observeRTT(w int, rtt time.Duration) {
	if co == nil || w < 0 || w >= len(co.pingRTT) {
		return
	}
	co.pingRTT[w].Set(rtt.Seconds())
}

// finished counts one finished query of kind k.
func (co *ctlObs) finished(k query.Kind, supersteps, local int) {
	if co == nil {
		return
	}
	kc := co.byKind[k]
	kc.queries.Inc()
	kc.supersteps.Add(int64(supersteps))
	kc.local.Add(int64(local))
}

// tracer returns the process tracer, nil when tracing is off.
func (c *Controller) tracer() *obs.Tracer {
	if c.cfg.Obs == nil {
		return nil
	}
	return c.cfg.Obs.Tracer
}

// leftPhase follows every transition of adapt that enters a phase: it
// charges the time spent in prev, the phase left, to a "barrier/<phase>"
// span under the engine span of every active traced query, and starts the
// clock of the phase entered.
func (c *Controller) leftPhase(prev phase) {
	now := c.cfg.Clock()
	if prev != c.adapt.phase && prev != phaseRun {
		c.spanActiveQueries("barrier/"+phaseName(prev), c.phaseStart, now, nil)
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
// per worker report the collection took, carrying the worker's share of
// the computation (compute time, processed vertices, batches sent in its
// last superstep, supersteps covered). Worker spans end at the
// collection; their durations are the worker-side measurements shipped
// in BarrierSynch.ComputeNS.
func (c *Controller) endStepSpan(ctl *qctl) {
	if ctl.stepSpan == nil {
		return
	}
	now := c.cfg.Clock()
	for _, r := range ctl.taken {
		var sent int32
		for _, nb := range r.SentBatches {
			sent += nb
		}
		start := now.Add(-time.Duration(r.ComputeNS))
		ctl.trace.SpanAt(ctl.stepSpan, fmt.Sprintf("worker %d", r.W), start, now, map[string]any{
			"processed":    r.Processed,
			"sent_batches": sent,
			"local_iters":  r.LocalIters,
			"supersteps":   r.Step - r.FromStep + 1,
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
