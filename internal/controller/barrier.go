package controller

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"qgraph/internal/metrics"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
)

// This file is the per-query side of the hybrid barrier (Sec. 3.3). Each
// query's round decides which workers a superstep involves, whether it
// runs solo in one worker's local query barrier loop, when it is fully
// reported, and when the query ends. The controller half below does the
// I/O around those decisions: it schedules queries, sends BarrierReady and
// QueryFinish, and keeps pins, spans, the Recorder and the monitoring
// window. Every query leaves through end.

// round is one query's barrier state. Its transitions read nothing but the
// round and their arguments — no connection, clock, phase or instrument —
// and only they assign its fields.
type round struct {
	mode     SyncMode
	monotone bool // the program's bound may end a goal query early
	maxIters int  // the spec's MaxIters; 0 is unbounded

	step        int32 // last fully collected superstep (-1 before step 0)
	outstanding bool  // superstep step+1 is released; reports are due
	involved    map[partition.WorkerID]bool
	reports     map[partition.WorkerID]*protocol.BarrierSynch

	scopeSizes []int64 // latest |LS(q,w)| per worker
	everActive []bool  // workers that ever processed or held scope
	blocks     []int32 // every worker's BarrierSynch.NewBlocks so far, unsorted
	bestGoal   float64
	stepsDone  int
	localSteps int
}

// newRound is the round of prog's query on k workers, before superstep 0.
func newRound(k int, mode SyncMode, prog query.Program, maxIters int) round {
	r := round{
		mode: mode, monotone: prog.Monotone(), maxIters: maxIters,
		scopeSizes: make([]int64, k), everActive: make([]bool, k),
	}
	r.restart()
	return r
}

// release opens superstep step+1 over next, the workers with pending work,
// and says whether it runs solo: in the hybrid mode a one-worker superstep
// iterates in that worker's local loop with no round-trip to the
// controller. A drained release (the first after a global barrier, whose
// scope moves may have relocated activations anywhere) and every release
// of the SyncGlobal baseline (Fig. 6d) widen to all workers not in dead.
func (r *round) release(next, dead map[partition.WorkerID]bool, drained bool) (solo bool) {
	if drained || r.mode == SyncGlobal {
		next = liveSet(len(r.scopeSizes), dead)
	}
	r.involved = next
	r.reports = make(map[partition.WorkerID]*protocol.BarrierSynch, len(next))
	r.outstanding = true
	return r.mode == SyncHybrid && len(next) == 1 && !drained
}

// report adds worker m.W's report on the outstanding superstep and says
// whether it was the last one due. A report from a worker the superstep
// does not involve, or a second one from the same worker, is a protocol
// error.
func (r *round) report(m *protocol.BarrierSynch) (complete bool, err error) {
	if !r.involved[m.W] {
		return false, fmt.Errorf("controller: synch for query %d from uninvolved worker %d", m.Q, m.W)
	}
	if r.reports[m.W] != nil {
		return false, fmt.Errorf("controller: duplicate synch for query %d from worker %d", m.Q, m.W)
	}
	r.reports[m.W] = m
	r.scopeSizes[m.W] = int64(m.ScopeSize)
	r.blocks = append(r.blocks, m.NewBlocks...)
	if m.Processed > 0 || m.ScopeSize > 0 {
		r.everActive[m.W] = true
	}
	r.bestGoal = min(r.bestGoal, m.BestGoal)
	return len(r.reports) == len(r.involved), nil
}

// collect closes the fully reported superstep. A non-zero end is why the
// query ends; otherwise next holds the workers the next superstep involves
// and expect the batch count each of them must await.
func (r *round) collect() (end protocol.FinishReason, next map[partition.WorkerID]bool, expect map[partition.WorkerID]int32) {
	collected := r.step
	minFrontier := query.NoResult
	totalSent := int32(0)
	activeWorkers := 0
	next = make(map[partition.WorkerID]bool)
	expect = make(map[partition.WorkerID]int32)
	for w, m := range r.reports {
		collected = max(collected, m.Step)
		minFrontier = min(minFrontier, m.MinFrontier)
		if m.Processed > 0 {
			activeWorkers++
		}
		if m.NActiveNext > 0 {
			next[w] = true
		}
		r.localSteps += int(m.LocalIters) // steps of a solo loop
		for dst, nb := range m.SentBatches {
			if nb > 0 {
				d := partition.WorkerID(dst)
				expect[d] += nb
				next[d] = true
				totalSent += nb
			}
		}
	}
	r.stepsDone += int(collected - r.step)
	r.step = collected
	r.outstanding = false
	// Locality accounting (Fig. 6f): beside the solo-loop steps, the
	// collected step is local if at most one worker computed and nothing
	// crossed workers.
	if totalSent == 0 && activeWorkers <= 1 {
		r.localSteps++
	}

	// Termination (Sec. 2: a query ends when no active vertex remains; the
	// monotone bound additionally ends goal queries as soon as no in-flight
	// value can beat the best goal — that is what confines localized
	// queries to their region).
	switch {
	case len(next) == 0:
		return protocol.FinishConverged, nil, nil
	case r.monotone && r.bestGoal < query.NoResult && minFrontier >= r.bestGoal:
		return protocol.FinishEarly, nil, nil
	case r.maxIters > 0 && int(collected)+1 >= r.maxIters:
		return protocol.FinishMaxIters, nil, nil
	}
	return 0, next, expect
}

// move relocates the query's scope on from to to, as an executed
// MoveScope did: without it the next Q-cut snapshot would see a phantom
// split and issue pointless move directives forever.
func (r *round) move(from, to partition.WorkerID) {
	r.scopeSizes[to] += r.scopeSizes[from]
	r.scopeSizes[from] = 0
}

// restart rewinds the round to before superstep 0, for a re-execution on
// the recovered partitioning. Supersteps executed and local iterations keep
// accumulating — the engine did that work. Touched (scopeSizes), Workers
// (everActive) and Blocks describe the run that produces the result, not
// the one a failure discarded, and a goal found before the failure proved
// a path at the old pin, so all of them start over.
func (r *round) restart() {
	r.step = -1
	r.outstanding = false
	r.involved, r.reports = nil, nil
	clear(r.scopeSizes)
	clear(r.everActive)
	r.blocks = r.blocks[:0]
	r.bestGoal = query.NoResult
}

// result is query q's Result at pinned version, ended for reason after
// latency.
func (r *round) result(q query.ID, version uint64, reason protocol.FinishReason, latency time.Duration) Result {
	touched, workers := 0, 0
	for w, sz := range r.scopeSizes {
		touched += int(sz)
		if r.everActive[w] {
			workers++
		}
	}
	// Workers sharing a block each reported it.
	slices.Sort(r.blocks)
	r.blocks = slices.Compact(r.blocks)
	return Result{
		Q:          q,
		Value:      r.bestGoal,
		Reason:     reason,
		Supersteps: r.stepsDone,
		LocalIters: r.localSteps,
		Touched:    touched,
		Workers:    workers,
		Latency:    latency,
		Version:    version,
		Blocks:     r.blocks,
	}
}

// liveSet is the set of the k workers not in dead.
func liveSet(k int, dead map[partition.WorkerID]bool) map[partition.WorkerID]bool {
	live := make(map[partition.WorkerID]bool, k)
	for w := partition.WorkerID(0); int(w) < k; w++ {
		if !dead[w] {
			live[w] = true
		}
	}
	return live
}

// onSchedule starts a query, or defers it while a global barrier or a
// recovery episode is active (recovery restarts deferred queries once the
// live set settles — callers see latency, not worker_lost).
func (c *Controller) onSchedule(req scheduleReq) {
	spec := req.spec
	switch {
	case c.members.terminal:
		// Every worker is dead; nothing can ever execute this query.
		req.refuse(protocol.FinishWorkerLost)
		return
	case c.adapt.phase != phaseRun:
		c.deferred = append(c.deferred, req)
		return
	case c.queries[spec.ID] != nil || c.byQ[spec.ID] != nil:
		// Query ids must be unique while any state of them lingers: an
		// active duplicate would corrupt barrier bookkeeping, and reusing a
		// windowed id would confuse the workers' finished-scope tracking.
		req.refuse(protocol.FinishRejected)
		return
	}
	prog := query.MustNew(spec.Kind)
	ctl := &qctl{
		spec:    spec,
		started: c.cfg.Clock(),
		ch:      req.ch,
		round:   newRound(c.cfg.K, c.cfg.Mode, prog, spec.MaxIters),
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
	c.release(ctl, init, nil, false)
}

// refuse answers a request that never became an active query.
func (req scheduleReq) refuse(reason protocol.FinishReason) {
	req.ch <- Result{Q: req.spec.ID, Value: query.NoResult, Reason: reason}
}

// onCancel abandons a query on behalf of its caller. A deferred query is
// cancelled immediately. An executing one is finished eagerly outside the
// global-barrier move phases: the QueryFinish broadcast interrupts even
// solo local loops, because workers drain their inbox between local
// supersteps, and late BarrierSynch reports for the dropped query are
// tolerated by onSynch. During the barrier phases (stopping → moving) and
// a recovery round the network must stay quiet, so the cancel is only
// marked and honored at resume.
func (c *Controller) onCancel(q query.ID) {
	if ctl, ok := c.queries[q]; ok {
		ctl.cancelled = true
		if c.adapt.phase == phaseRun || c.adapt.phase == phaseQuiesce {
			c.finishQuery(ctl, protocol.FinishCancelled)
		}
		return
	}
	if i := slices.IndexFunc(c.deferred, func(req scheduleReq) bool { return req.spec.ID == q }); i >= 0 {
		c.deferred[i].refuse(protocol.FinishCancelled)
		c.deferred = slices.Delete(c.deferred, i, i+1)
		return
	}
	// Neither active nor deferred: the query already finished, or the id
	// was never scheduled. Either way, a no-op — cancels ride the schedule
	// FIFO, so they cannot overtake the schedule they refer to.
}

// release sends BarrierReady for the superstep ctl's round opens over
// next. expect maps each receiver to the batch count it must await (nil =
// zero); drained marks a post-global-barrier resume.
func (c *Controller) release(ctl *qctl, next map[partition.WorkerID]bool, expect map[partition.WorkerID]int32, drained bool) {
	solo := ctl.round.release(next, c.members.dead, drained)
	ctl.releasedAt = c.cfg.Clock()
	step := ctl.step + 1
	c.beginStepSpan(ctl, step)
	for w := range ctl.involved {
		c.conn.Send(protocol.WorkerNode(w), &protocol.BarrierReady{
			Q:       ctl.spec.ID,
			Step:    step,
			Expect:  expect[w],
			Solo:    solo,
			Drained: drained,
		})
	}
}

// onSynch hands a worker's barrier report to its query's round and, once
// every involved worker reported, collects the superstep.
func (c *Controller) onSynch(m *protocol.BarrierSynch) error {
	ctl, ok := c.queries[m.Q]
	if !ok {
		// Late report of a query we already finished (a solo loop that
		// raced the finish decision, or a step a cancel overtook): its
		// scope size is still the newest one.
		if we := c.byQ[m.Q]; we != nil {
			we.sizes[m.W] = int64(m.ScopeSize)
		}
		return nil
	}
	complete, err := ctl.report(m)
	if err != nil {
		return err
	}
	c.obs.onReport(m)
	c.cfg.Monitor.ObserveCompute(int(m.W), m.ComputeNS, int(m.Step-m.FromStep)+1)
	if complete {
		c.collect(ctl)
	}
	return nil
}

// collect advances a query whose superstep is fully reported: finish it,
// hold its next release while a global barrier forms (resume re-releases
// after GlobalStart), or release the next superstep.
func (c *Controller) collect(ctl *qctl) {
	end, next, expect := ctl.round.collect()
	c.endStepSpan(ctl)
	switch {
	case end != 0:
		c.finishQuery(ctl, end)
	case c.adapt.phase != phaseRun:
		c.maybeStop()
	default:
		c.release(ctl, next, expect, false)
	}
}

// finishQuery ends a query the workers still hold: tell them to drop it,
// deliver its result, and move its statistics into the monitoring window.
func (c *Controller) finishQuery(ctl *qctl, reason protocol.FinishReason) {
	c.broadcast(&protocol.QueryFinish{Q: ctl.spec.ID, Reason: reason})
	res := c.end(ctl, reason)
	if rec := c.cfg.Recorder; rec != nil {
		rec.RecordQuery(metrics.QueryRecord{
			ID:          int64(res.Q),
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
	c.windowAdd(ctl, ctl.started.Add(res.Latency))
	if c.adapt.phase == phaseQuiesce {
		c.maybeStop()
	}
}

// end is the one exit of an active query, whatever ended it: the query
// leaves the active set, its trace closes, its pin is released, and its
// caller gets the round's Result.
func (c *Controller) end(ctl *qctl, reason protocol.FinishReason) Result {
	delete(c.queries, ctl.spec.ID)
	res := ctl.result(ctl.spec.ID, ctl.spec.PinVersion, reason, c.cfg.Clock().Sub(ctl.started))
	c.endQueryTrace(ctl, res)
	c.unpin(ctl)
	ctl.ch <- res
	return res
}

// failQueries ends every active query and refuses every deferred one, for
// reason.
func (c *Controller) failQueries(reason protocol.FinishReason) {
	for _, ctl := range c.queries {
		c.end(ctl, reason)
	}
	for _, req := range c.deferred {
		req.refuse(reason)
	}
	c.deferred = nil
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
		if now.Sub(we.at) <= protocol.DefaultMu {
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

// avgLocality is the Analyze metric: mean fraction of fully-local
// iterations over the queries in the monitoring window.
func (c *Controller) avgLocality() float64 {
	if len(c.window) == 0 {
		return 1
	}
	sum := 0.0
	for _, we := range c.window {
		sum += we.locality
	}
	return sum / float64(len(c.window))
}

// snapshot builds the Q-cut input from the high-level global view: scope
// size rows for windowed (finished) and active queries, the intersections
// pairs[w] worker w reported, summed over live workers, and the
// authoritative per-worker vertex counts. It sets no Deadline.
func (c *Controller) snapshot(pairs [][]protocol.IntersectionStat) qcut.Input {
	// Recovery destroyed the scope state the window still attributes to
	// dead workers: their rows are zeroed, and Q-cut ignores them.
	alive := make([]bool, c.cfg.K)
	for w := 0; w < c.cfg.K; w++ {
		alive[w] = !c.members.dead[partition.WorkerID(w)]
	}
	maskRow := func(sizes []int64) []int64 {
		out := append([]int64(nil), sizes...)
		for w := range out {
			if !alive[w] {
				out[w] = 0
			}
		}
		return out
	}
	// Windowed queries come first, in finish order, then live ones by
	// ascending id: Q-cut draws its randomness in input order, so the input
	// must not follow map order. rowOf is a query's index.
	rows := make([]qcut.ScopeRow, 0, len(c.window)+len(c.queries))
	rowOf := make(map[query.ID]int, len(c.window)+len(c.queries))
	for _, we := range c.window {
		rowOf[we.q] = len(rows)
		rows = append(rows, qcut.ScopeRow{Q: we.q, Sizes: maskRow(we.sizes)})
	}
	for _, q := range slices.Sorted(maps.Keys(c.queries)) {
		if _, seen := rowOf[q]; !seen {
			rowOf[q] = len(rows)
			rows = append(rows, qcut.ScopeRow{Q: q, Sizes: maskRow(c.queries[q].scopeSizes)})
		}
	}
	// A worker names each pair once, so summing over live workers gives
	// the pair's overlap. A pair may name a query that left the window
	// since the worker answered; it has no row and is dropped.
	agg := make(map[[2]query.ID]int64)
	for w, stats := range pairs {
		if !alive[w] {
			continue
		}
		for _, is := range stats {
			_, ok1 := rowOf[is.Q1]
			if _, ok2 := rowOf[is.Q2]; ok1 && ok2 {
				agg[[2]query.ID{min(is.Q1, is.Q2), max(is.Q1, is.Q2)}] += int64(is.Shared)
			}
		}
	}
	inter := make([]qcut.Intersection, 0, len(agg))
	for pair, shared := range agg {
		inter = append(inter, qcut.Intersection{Q1: pair[0], Q2: pair[1], Shared: shared})
	}
	slices.SortFunc(inter, func(a, b qcut.Intersection) int {
		return cmp.Or(cmp.Compare(a.Q1, b.Q1), cmp.Compare(a.Q2, b.Q2))
	})
	return qcut.Input{
		K:             c.cfg.K,
		Scopes:        rows,
		Intersections: inter,
		VertexCounts:  append([]int64(nil), c.vertCount...),
		Alive:         alive,
		Delta:         balanceSlack,
		Seed:          c.cfg.Seed + uint64(c.adapt.epoch),
	}
}
