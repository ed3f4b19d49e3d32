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
// query's round decides which workers a superstep involves, whether its
// involved workers release the next one themselves (a run: of one worker,
// the local query barrier), which superstep its workers' reports let it
// collect, and when the query ends. The controller half below does the
// I/O around those decisions: it schedules queries, sends BarrierReady and
// QueryFinish, and keeps pins, spans, the Recorder and the monitoring
// window. Every query leaves through end.

// round is one query's barrier state. Its transitions read nothing but the
// round and their arguments — no connection, clock, phase or instrument —
// and only they assign its fields.
type round struct {
	mode  SyncMode
	rules protocol.Rules

	step        int32 // last collected superstep (-1 before step 0)
	outstanding bool  // superstep step+1 is released; reports are due
	involved    map[partition.WorkerID]bool
	// peers lists the involved workers, sorted, when the release opens a
	// run (protocol.BarrierReady.Peers); nil otherwise.
	peers []partition.WorkerID
	// reports holds each involved worker's reports not collected yet, in
	// order. Each covers the supersteps from the one after the last it
	// holds, or after step, on: a worker of a run may report several at
	// once, and ahead of its peers, since the run releases them itself.
	// awaiting counts the involved workers with none queued.
	reports  map[partition.WorkerID][]*protocol.BarrierSynch
	awaiting int
	taken    []*protocol.BarrierSynch // the reports the last collection took
	// sumPeers and sums are the last collection's summaries, in worker
	// order, as protocol.Rules.Decide takes them.
	sumPeers []partition.WorkerID
	sums     []protocol.StepSummary

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
		mode: mode, rules: protocol.Rules{Monotone: prog.Monotone(), MaxIters: maxIters},
		scopeSizes: make([]int64, k), everActive: make([]bool, k),
	}
	r.restart()
	return r
}

// release opens superstep step+1 over next, the workers with pending work:
// in the hybrid mode, a run (protocol.BarrierReady.Peers). A drained
// release (the first after a global barrier, whose scope moves may have
// relocated activations anywhere) opens none, and it and every release of
// the SyncGlobal baseline (Fig. 6d) widen to all workers not in dead.
func (r *round) release(next, dead map[partition.WorkerID]bool, drained bool) {
	if drained || r.mode == SyncGlobal {
		next = liveSet(len(r.scopeSizes), dead)
	}
	r.involved = next
	r.peers = nil
	if r.mode == SyncHybrid && !drained {
		r.peers = slices.Sorted(maps.Keys(next))
	}
	if r.reports == nil {
		r.reports = make(map[partition.WorkerID][]*protocol.BarrierSynch, len(next))
	}
	for w, queued := range r.reports { // every one collected: reuse the arrays
		r.reports[w] = queued[:0]
	}
	r.awaiting = len(next)
	r.outstanding = true
}

// report queues worker m.W's report. A report from a worker the released
// superstep does not involve, or one whose supersteps do not follow the
// worker's last (a gap, or an overlap such as a second report of one
// superstep), is a protocol error.
func (r *round) report(m *protocol.BarrierSynch) error {
	if !r.outstanding || !r.involved[m.W] {
		return fmt.Errorf("controller: synch for query %d from uninvolved worker %d", m.Q, m.W)
	}
	queued := r.reports[m.W]
	from := r.step + 1
	if n := len(queued); n > 0 {
		from = queued[n-1].Step + 1
	}
	if m.FromStep != from || m.Step < m.FromStep {
		return fmt.Errorf("controller: synch for query %d from worker %d covers steps %d..%d, want %d on", m.Q, m.W, m.FromStep, m.Step, from)
	}
	if len(queued) == 0 {
		r.awaiting--
	}
	r.reports[m.W] = append(queued, m)
	return nil
}

// due is the superstep the round can collect: the earliest at which a
// report of every involved worker ends. ok is false while there is none.
func (r *round) due() (s int32, ok bool) {
	if !r.outstanding || r.awaiting > 0 {
		return 0, false
	}
	s = r.step + 1
	for moved := true; moved; {
		moved = false
		for w := range r.involved {
			end := int32(-1)
			for _, m := range r.reports[w] {
				if m.Step >= s {
					end = m.Step
					break
				}
			}
			if end < 0 {
				return 0, false
			}
			if end > s {
				s, moved = end, true
			}
		}
	}
	return s, true
}

// collect closes superstep s, which due returned, with the decision the
// workers take too (protocol.Rules.Decide), and says whether the workers
// released the next superstep themselves (protocol.Decision.Runs): the
// implicit release, over the same workers or fewer, which the round then
// records. Reports on later supersteps stay queued; a worker that the
// decision leaves idle and reported one is a protocol error.
func (r *round) collect(s int32) (d protocol.Decision, implicit bool, err error) {
	totalSent := int32(0)
	activeWorkers := 0
	ahead := false // a worker reported past s
	r.taken, r.sumPeers, r.sums = r.taken[:0], r.sumPeers[:0], r.sums[:0]
	for w := range partition.WorkerID(len(r.scopeSizes)) {
		if !r.involved[w] {
			continue
		}
		queued := r.reports[w]
		i := slices.IndexFunc(queued, func(m *protocol.BarrierSynch) bool { return m.Step == s })
		r.taken = append(r.taken, queued[:i+1]...)
		for _, m := range queued[:i+1] {
			r.localSteps += int(m.LocalIters) // steps of a run of one
			r.scopeSizes[w] = int64(m.ScopeSize)
			r.blocks = append(r.blocks, m.NewBlocks...)
			if m.Processed > 0 || m.ScopeSize > 0 {
				r.everActive[w] = true
			}
			r.bestGoal = min(r.bestGoal, m.BestGoal)
		}
		// Every peer of a run computes every superstep of it, so a report's
		// Processed tells whether its last superstep computed anything.
		last := queued[i]
		if last.Processed > 0 {
			activeWorkers++
		}
		for _, nb := range last.SentBatches {
			totalSent += nb
		}
		r.sumPeers, r.sums = append(r.sumPeers, w), append(r.sums, last.Summary())
		if queued = queued[i+1:]; len(queued) == 0 {
			queued = r.reports[w][:0] // keep the array for the next report
		}
		r.reports[w] = queued
		ahead = ahead || len(queued) > 0
	}
	r.stepsDone += int(s - r.step)
	r.step = s
	r.outstanding = false
	// Locality accounting (Fig. 6f): beside a run of one's steps, the
	// collected step is local if at most one worker computed and nothing
	// crossed workers. The steps of a run of several before it never are.
	if totalSent == 0 && activeWorkers <= 1 {
		r.localSteps++
	}
	r.rules.Decide(&d, s, r.bestGoal, r.sumPeers, r.sums)
	implicit = d.Runs(r.peers)
	if ahead {
		for w, queued := range r.reports {
			if len(queued) > 0 && (!implicit || !d.Next[w]) {
				return d, false, fmt.Errorf("controller: synch for query %d from worker %d on step %d, after the decision on %d left it idle", queued[0].Q, w, queued[0].FromStep, s)
			}
		}
	}
	if implicit {
		if len(d.Next) < len(r.peers) {
			r.involved = maps.Clone(d.Next)
			r.peers = slices.Sorted(maps.Keys(d.Next))
		}
		r.outstanding = true
		r.awaiting = 0
		for w := range r.involved {
			if len(r.reports[w]) == 0 {
				r.awaiting++
			}
		}
	}
	return d, implicit, nil
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
	r.involved, r.peers, r.reports = nil, nil, nil
	clear(r.scopeSizes)
	clear(r.everActive)
	r.blocks = r.blocks[:0]
	r.bestGoal = query.NoResult
}

// result is query q's Result at pinned version, ended for reason after
// latency. bits is protocol.SortBlocks' scratch.
func (r *round) result(q query.ID, version uint64, reason protocol.FinishReason, latency time.Duration, bits *[]uint64) Result {
	touched, workers := 0, 0
	for w, sz := range r.scopeSizes {
		touched += int(sz)
		if r.everActive[w] {
			workers++
		}
	}
	// Workers sharing a block each reported it.
	r.blocks = protocol.SortBlocks(r.blocks, bits)
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
// a run of one, because workers drain their inbox between supersteps, and
// late BarrierSynch reports for the dropped query are tolerated by
// onSynch. During the barrier phases (stopping → moving) and a recovery
// round the network must stay quiet, so the cancel is only marked and
// honored at resume.
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

// opened records the release of ctl's superstep step+1, explicit or
// implicit: its time, for the stall watchdog, and its span.
func (c *Controller) opened(ctl *qctl) {
	ctl.releasedAt = c.cfg.Clock()
	c.beginStepSpan(ctl, ctl.step+1)
}

// release sends BarrierReady for the superstep ctl's round opens over
// next. expect maps each receiver to the batch count it must await (nil =
// zero); drained marks a post-global-barrier resume.
func (c *Controller) release(ctl *qctl, next map[partition.WorkerID]bool, expect map[partition.WorkerID]int32, drained bool) {
	ctl.round.release(next, c.members.dead, drained)
	c.opened(ctl)
	for w := range ctl.involved {
		c.conn.Send(protocol.WorkerNode(w), &protocol.BarrierReady{
			Q:        ctl.spec.ID,
			Step:     ctl.step + 1,
			Expect:   expect[w],
			Drained:  drained,
			BestGoal: ctl.bestGoal,
			Peers:    ctl.peers,
		})
	}
}

// onSynch hands a worker's barrier report to its query's round and
// collects every superstep the round's reports let it.
func (c *Controller) onSynch(m *protocol.BarrierSynch) error {
	ctl, ok := c.queries[m.Q]
	if !ok {
		// Late report of a query we already finished (a step a cancel
		// overtook): its scope size is still the newest one.
		if we := c.byQ[m.Q]; we != nil {
			we.sizes[m.W] = int64(m.ScopeSize)
		}
		return nil
	}
	if err := ctl.report(m); err != nil {
		return err
	}
	c.cfg.Monitor.ObserveCompute(int(m.W), m.ComputeNS, int(m.Step-m.FromStep)+1, int(m.Processed))
	return c.collect(ctl)
}

// collect advances a query while its round can collect a superstep: finish
// it, record the release its workers took themselves (and go on with the
// reports on it that came early), hold its next release while a global
// barrier forms (resume re-releases after GlobalStart), or release the
// next superstep. A quiescing global barrier cannot hold an implicit
// release: it waits for the query's run, of one worker or several, to
// stop.
func (c *Controller) collect(ctl *qctl) error {
	for s, ok := ctl.due(); ok; s, ok = ctl.due() {
		d, implicit, err := ctl.round.collect(s)
		if err != nil {
			return err
		}
		c.endStepSpan(ctl)
		switch {
		case d.End != 0:
			c.finishQuery(ctl, d.End)
			return nil
		case implicit:
			c.opened(ctl)
		case c.adapt.phase != phaseRun:
			c.maybeStop()
		default:
			c.release(ctl, d.Next, d.Expect, false)
		}
	}
	return nil
}

// finishQuery ends a query the workers still hold: tell them to drop it,
// deliver its result, and move its statistics into the monitoring window.
// A query its workers finished is also recorded and counted; a cancelled
// one is not, since its supersteps are not a whole query's.
func (c *Controller) finishQuery(ctl *qctl, reason protocol.FinishReason) {
	c.broadcast(&protocol.QueryFinish{Q: ctl.spec.ID, Reason: reason})
	res := c.end(ctl, reason)
	if reason != protocol.FinishCancelled {
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
		c.obs.finished(ctl.spec.Kind, res.Supersteps, res.LocalIters)
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
	res := ctl.result(ctl.spec.ID, ctl.spec.PinVersion, reason, c.cfg.Clock().Sub(ctl.started), &c.blockBits)
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
