package controller

import (
	"fmt"
	"slices"
	"time"

	"qgraph/internal/metrics"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// This file implements the per-query side of the hybrid barrier
// synchronization (Sec. 3.3): scheduling a query onto the workers,
// collecting barrierSynch reports, deciding termination, and releasing the
// next superstep to exactly the involved workers (limited query barrier) —
// or to a single worker with the solo flag that enables its local query
// barrier loop.

// onSchedule starts a query, or defers it while a global barrier or a
// recovery episode is active (recovery restarts deferred queries once the
// live set settles — callers see latency, not worker_lost).
func (c *Controller) onSchedule(req scheduleReq) {
	if c.terminal {
		// Every worker is dead; nothing can ever execute this query.
		req.ch <- Result{Q: req.spec.ID, Value: query.NoResult, Reason: protocol.FinishWorkerLost}
		return
	}
	if c.phase != phaseRun {
		c.deferred = append(c.deferred, req)
		return
	}
	c.startQuery(req)
}

func (c *Controller) startQuery(req scheduleReq) {
	spec := req.spec
	if c.terminal {
		req.ch <- Result{Q: spec.ID, Value: query.NoResult, Reason: protocol.FinishWorkerLost}
		return
	}
	// Query ids must be unique while any state of them lingers: an active
	// duplicate would corrupt barrier bookkeeping, and reusing a windowed
	// id would confuse the workers' finished-scope tracking.
	if _, active := c.queries[spec.ID]; active || c.byQ[spec.ID] != nil {
		req.ch <- Result{Q: spec.ID, Value: query.NoResult, Reason: protocol.FinishRejected}
		return
	}
	prog := query.MustNew(spec.Kind)
	ctl := &qctl{
		spec:       spec,
		prog:       prog,
		started:    c.cfg.Clock(),
		ch:         req.ch,
		step:       -1,
		involved:   make(map[partition.WorkerID]bool),
		reports:    make(map[partition.WorkerID]*protocol.BarrierSynch),
		scopeSizes: make([]int64, c.cfg.K),
		everActive: make([]bool, c.cfg.K),
		bestGoal:   query.NoResult,
	}
	c.queries[spec.ID] = ctl
	// The query executes against the version committed now (MVCC): batches
	// committing later stay invisible to it. Every worker is at exactly
	// this version when the broadcast below reaches it — the broadcast is
	// ordered, per link, after the DeltaBatch that produced the version and
	// before the one that supersedes it — and checks that it is.
	c.pin(ctl)
	c.beginQueryTrace(ctl)
	c.broadcast(&protocol.ExecuteQuery{Spec: ctl.spec})

	// Initial involved set: owners of the initial activations.
	init := make(map[partition.WorkerID]bool)
	for _, act := range prog.Init(c.curView.Load(), ctl.spec) {
		init[c.owner[act.V]] = true
	}
	c.release(ctl, 0, init, nil, false)
}

// onCancel abandons a query on behalf of its caller. A deferred query is
// cancelled immediately. An executing one is finished eagerly outside the
// global-barrier move phases: the QueryFinish broadcast interrupts even
// solo local loops, because workers drain their inbox between local
// supersteps, and late BarrierSynch reports for the dropped query are
// tolerated by onSynch. During the barrier phases (stopping → moving) the
// network must stay quiet, so the cancel is only marked and honored at
// resume.
func (c *Controller) onCancel(q query.ID) {
	if ctl, ok := c.queries[q]; ok {
		ctl.cancelled = true
		if c.phase == phaseRun || c.phase == phaseQuiesce {
			c.finishQuery(ctl, protocol.FinishCancelled)
		}
		return
	}
	for i, req := range c.deferred {
		if req.spec.ID == q {
			req.ch <- Result{Q: q, Value: query.NoResult, Reason: protocol.FinishCancelled}
			c.deferred = append(c.deferred[:i], c.deferred[i+1:]...)
			return
		}
	}
	// Neither active nor deferred: the query already finished, or the id
	// was never scheduled. Either way, a no-op — cancels ride the schedule
	// FIFO, so they cannot overtake the schedule they refer to.
}

// release issues barrierReady for superstep step. expect maps each
// receiver to the batch count it must await (nil = zero). drained marks a
// post-global-barrier resume.
func (c *Controller) release(ctl *qctl, step int32, involved map[partition.WorkerID]bool, expect map[partition.WorkerID]int32, drained bool) {
	if c.cfg.Mode == SyncGlobal {
		// Traditional BSP baseline (Fig. 6d): every query synchronizes
		// across all live workers every iteration.
		all := make(map[partition.WorkerID]bool, c.cfg.K)
		for w := 0; w < c.cfg.K; w++ {
			if !c.deadWorkers[partition.WorkerID(w)] {
				all[partition.WorkerID(w)] = true
			}
		}
		involved = all
	}
	solo := c.cfg.Mode == SyncHybrid && len(involved) == 1 && !drained
	ctl.involved = involved
	ctl.reports = make(map[partition.WorkerID]*protocol.BarrierSynch, len(involved))
	ctl.outstanding = true
	ctl.releasedAt = c.cfg.Clock()
	c.beginStepSpan(ctl, step)
	for w := range involved {
		c.conn.Send(protocol.WorkerNode(w), &protocol.BarrierReady{
			Q:       ctl.spec.ID,
			Step:    step,
			Expect:  expect[w],
			Solo:    solo,
			Drained: drained,
		})
	}
}

// onSynch records a worker's barrier report and, once all involved workers
// reported, collects the superstep.
func (c *Controller) onSynch(m *protocol.BarrierSynch) error {
	if m.Finished {
		// Final statistics after QueryFinish: complete the window entry.
		if we := c.byQ[m.Q]; we != nil {
			we.sizes[m.W] = int64(m.ScopeSize)
			we.inter[m.W] = m.Intersections
		}
		return nil
	}
	ctl, ok := c.queries[m.Q]
	if !ok {
		// Late report of a query we already finished (e.g. a solo loop
		// that raced the finish decision). Harmless.
		return nil
	}
	if !ctl.involved[m.W] {
		return fmt.Errorf("controller: synch for query %d from uninvolved worker %d", m.Q, m.W)
	}
	if ctl.reports[m.W] != nil {
		return fmt.Errorf("controller: duplicate synch for query %d from worker %d", m.Q, m.W)
	}
	ctl.reports[m.W] = m
	c.obs.onReport(m)
	c.cfg.Monitor.ObserveCompute(int(m.W), m.ComputeNS, int(m.Step-m.FromStep)+1)
	ctl.scopeSizes[m.W] = int64(m.ScopeSize)
	ctl.blocks = append(ctl.blocks, m.NewBlocks...)
	if m.Processed > 0 || m.ScopeSize > 0 {
		ctl.everActive[m.W] = true
	}
	ctl.bestGoal = min(ctl.bestGoal, m.BestGoal)
	if len(ctl.reports) == len(ctl.involved) {
		c.collect(ctl)
	}
	return nil
}

// collect advances a query whose current superstep is fully reported:
// update statistics, decide termination, release the next superstep.
func (c *Controller) collect(ctl *qctl) {
	collectedStep := ctl.step
	minFrontier := query.NoResult
	totalSent := int32(0)
	activeWorkers := 0
	expect := make(map[partition.WorkerID]int32)
	next := make(map[partition.WorkerID]bool)
	localExtra := 0

	for w, r := range ctl.reports {
		collectedStep = max(collectedStep, r.Step)
		minFrontier = min(minFrontier, r.MinFrontier)
		if r.Processed > 0 {
			activeWorkers++
		}
		if r.NActiveNext > 0 {
			next[w] = true
		}
		localExtra += int(r.LocalIters)
		for dst, nb := range r.SentBatches {
			if nb > 0 {
				d := partition.WorkerID(dst)
				expect[d] += nb
				next[d] = true
				totalSent += nb
			}
		}
	}

	ctl.stepsDone += int(collectedStep - ctl.step)
	ctl.step = collectedStep
	ctl.outstanding = false
	c.endStepSpan(ctl, collectedStep)
	// Locality accounting (Fig. 6f): the solo-loop steps reported by the
	// worker plus the just-collected step if at most one worker computed
	// and nothing crossed workers.
	ctl.localSteps += localExtra
	if totalSent == 0 && activeWorkers <= 1 {
		ctl.localSteps++
	}

	// Termination (Sec. 2: a query ends when no active vertex remains; the
	// monotone bound additionally ends goal queries as soon as no
	// in-flight value can beat the best goal — that is what confines
	// localized queries to their region).
	switch {
	case len(next) == 0:
		c.finishQuery(ctl, protocol.FinishConverged)
		return
	case ctl.prog.Monotone() && ctl.bestGoal < query.NoResult && minFrontier >= ctl.bestGoal:
		c.finishQuery(ctl, protocol.FinishEarly)
		return
	case ctl.spec.MaxIters > 0 && int(collectedStep)+1 >= ctl.spec.MaxIters:
		c.finishQuery(ctl, protocol.FinishMaxIters)
		return
	}

	if c.phase != phaseRun {
		// A global barrier is forming; hold the release. resume
		// re-releases after GlobalStart.
		c.maybeStop()
		return
	}
	c.release(ctl, collectedStep+1, next, expect, false)
}

// finishQuery ends a query: notify workers, deliver the result, and move
// its statistics into the monitoring window.
func (c *Controller) finishQuery(ctl *qctl, reason protocol.FinishReason) {
	q := ctl.spec.ID
	c.forget(ctl)
	c.broadcast(&protocol.QueryFinish{Q: q, Reason: reason})

	now := c.cfg.Clock()
	touched, workers := 0, 0
	for w, sz := range ctl.scopeSizes {
		touched += int(sz)
		if ctl.everActive[w] {
			workers++
		}
	}
	res := Result{
		Q:          q,
		Value:      ctl.bestGoal,
		Reason:     reason,
		Supersteps: ctl.stepsDone,
		LocalIters: ctl.localSteps,
		Touched:    touched,
		Workers:    workers,
		Latency:    now.Sub(ctl.started),
		Version:    ctl.spec.PinVersion,
	}
	// Workers sharing a block each reported it.
	slices.Sort(ctl.blocks)
	res.Blocks = slices.Compact(ctl.blocks)
	c.endQueryTrace(ctl, reason, res)
	ctl.ch <- res

	if rec := c.cfg.Recorder; rec != nil {
		rec.RecordQuery(metrics.QueryRecord{
			ID:          int64(q),
			Kind:        ctl.spec.Kind.String(),
			ScheduledAt: ctl.started,
			Latency:     res.Latency,
			Supersteps:  res.Supersteps,
			LocalIters:  res.LocalIters,
			Touched:     res.Touched,
			Workers:     res.Workers,
			Result:      res.Value,
		})
	}
	c.windowAdd(ctl, now)
	if c.phase == phaseQuiesce {
		c.maybeStop()
	}
}

// windowAdd records a finished query in the monitoring window (tumbling
// window of Sec. 3.4, bounded by μ and the query cap).
func (c *Controller) windowAdd(ctl *qctl, now time.Time) {
	loc := 1.0
	if ctl.stepsDone > 0 {
		loc = float64(ctl.localSteps) / float64(ctl.stepsDone)
	}
	we := &windowEntry{
		q:        ctl.spec.ID,
		at:       now,
		sizes:    append([]int64(nil), ctl.scopeSizes...),
		inter:    make([][]protocol.IntersectionStat, c.cfg.K),
		locality: loc,
	}
	c.window = append(c.window, we)
	c.byQ[ctl.spec.ID] = we
	c.pruneWindow(now)
}

// pruneWindow drops entries older than μ and enforces the query cap.
func (c *Controller) pruneWindow(now time.Time) {
	keep := c.window[:0]
	for _, we := range c.window {
		if now.Sub(we.at) <= c.cfg.Mu {
			keep = append(keep, we)
		} else {
			delete(c.byQ, we.q)
		}
	}
	if over := len(keep) - protocol.WindowQueries; over > 0 {
		for _, we := range keep[:over] {
			delete(c.byQ, we.q)
		}
		keep = keep[over:]
	}
	c.window = keep
}
