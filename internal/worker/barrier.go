package worker

import (
	"fmt"
	"maps"
	"slices"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// barrier is the worker's half of the hybrid barrier (Sec. 3.3); the
// controller's round is the other. It decides when a released superstep
// may run, whether the workers of a run go on to the next superstep
// themselves (protocol.Rules.Decide; a run of one is the local query
// barrier), when the controller is owed a report, what becomes of a vertex
// batch, and when a StopAck is due.
// Its transitions read nothing but the machine and their arguments — no
// connection, clock, table or graph — and only they assign its fields.
type barrier struct {
	self    partition.WorkerID
	k       int   // the deployment's workers: a run over all of them cannot widen
	gen     int32 // the recovery generation: batches of another are stale
	queries map[query.ID]*qbar
	// runnable queues the queries with a superstep to run, oldest first:
	// one superstep per turn, so a long run of one cannot monopolize the
	// worker (multi-query execution, Sec. 3.3).
	runnable []query.ID
	early    map[query.ID][]*protocol.VertexBatch // raced ahead of ExecuteQuery

	// The global barrier. wait is the StopAck that awaits its peers'
	// markers, counted per epoch: they may run ahead of this worker's own
	// GlobalStop. arrived holds the vertices ScopeData brought from
	// GlobalStop to GlobalStart: move directives exclude them, so chained
	// ones (q: w1→w2 and q: w2→w3) relocate exactly the scopes the
	// controller saw, in any delivery order.
	wait    *stopWait
	markers map[int32]int
	arrived map[graph.VertexID]bool
}

type stopWait struct {
	epoch int32
	peers int // markers due, one per other live worker
}

// qbar is one query's barrier state on this worker.
type qbar struct {
	rules protocol.Rules
	rel   release
	state relState
	step  int32 // the next superstep to compute
	from  int32 // the first superstep the next report covers: before step, one is owed
	// recvBatches[s] counts the batches received that superstep s sent.
	recvBatches map[int32]int32
	bestGoal    float64
	// sums holds the summaries of a run's supersteps by parity and worker
	// (see slot), this one's included once it ran the superstep: a decision
	// awaits one superstep's, and a peer that took it may send the next's.
	sums []filed
	// scratch keeps a decision's summaries in peer order and the decision
	// for the next step: a run allocates nothing a superstep.
	scratch struct {
		sums []protocol.StepSummary
		dec  protocol.Decision
	}
}

// filed is a worker's summary of superstep step-1; step is 0 in a slot
// nothing was filed in.
type filed struct {
	step int32
	sum  protocol.StepSummary
}

// release is a BarrierReady's content, or an implicit release's.
type release struct {
	step, expect int32
	drained      bool
	bestGoal     float64
	peers        []partition.WorkerID // see protocol.BarrierReady.Peers
}

// report is a BarrierSynch the worker owes the controller, if due: the
// supersteps from to step of a query, step's summary last. localIters
// counts the local ones before step: all of a run of one's, none of a run
// of several's (every peer of a run computes every superstep of it).
type report struct {
	due        bool
	from, step int32
	localIters int32
	sum        protocol.StepSummary
}

type relState uint8

const (
	idle     relState = iota // reported, or never released
	held                     // awaiting expected batches
	running                  // queued
	deciding                 // ran a run's superstep, awaiting the peers' summaries
)

func newBarrier(self partition.WorkerID, k int) barrier {
	return barrier{
		self:    self,
		k:       k,
		queries: make(map[query.ID]*qbar),
		early:   make(map[query.ID][]*protocol.VertexBatch),
		markers: make(map[int32]int),
	}
}

// execute registers query q and returns the batches that raced ahead of
// it, counted as received.
func (b *barrier) execute(q query.ID, rules protocol.Rules) []*protocol.VertexBatch {
	qb := &qbar{rules: rules, recvBatches: make(map[int32]int32), bestGoal: query.NoResult,
		sums: make([]filed, 2*b.k)}
	buffered := b.early[q]
	delete(b.early, q)
	b.queries[q] = qb
	for _, m := range buffered {
		b.take(q, qb, m) // no report: the query has run no superstep here
	}
	return buffered
}

// ready takes release r of query q. It is held until r.expect batches of
// the superstep before arrived, unless it is drained: the first release
// after a global barrier, whose markers proved every batch in. A release
// may overtake the last summary a pending decision awaits, and it then
// replaces the decision. The controller releases only supersteps after
// those it collected, so a worker that owes a report takes none.
func (b *barrier) ready(q query.ID, r release) error {
	qb := b.queries[q]
	switch {
	case qb == nil:
		return fmt.Errorf("barrierReady for unknown query %d", q)
	case qb.state != idle && qb.state != deciding:
		return fmt.Errorf("query %d: release of step %d while step %d's is outstanding", q, r.step, qb.rel.step)
	case qb.from < qb.step:
		return fmt.Errorf("query %d: release of step %d with steps %d..%d unreported", q, r.step, qb.from, qb.step-1)
	}
	qb.bestGoal = min(qb.bestGoal, r.bestGoal)
	qb.rel, qb.state, qb.from = r, held, r.step
	b.advance(q, qb)
	return nil
}

func (b *barrier) advance(q query.ID, qb *qbar) {
	if qb.state != held || !qb.rel.drained && qb.recvBatches[qb.rel.step-1] < qb.rel.expect {
		return
	}
	delete(qb.recvBatches, qb.rel.step-1)
	qb.state, qb.step = running, qb.rel.step
	b.runnable = append(b.runnable, q)
}

// batch counts vertex batch m and says whether to deliver its entries, and
// the report it makes due: its summary may complete a decision that stops
// or narrows this worker's run. It
// drops a batch from before a recovery reset and, if finished, one of a
// query that finished here (the controller finishes a query once no
// improving message can exist), and buffers one that raced ahead of its
// ExecuteQuery. A batch for a superstep whose consumer ran or started is a
// protocol error: that release counted every batch there was. A marker
// carries no entries and no release counts it, so one that arrives after
// its consumer ran, released by the controller, is dropped.
func (b *barrier) batch(m *protocol.VertexBatch, finished bool) (deliver bool, rep report, err error) {
	qb := b.queries[m.Q]
	switch {
	case m.Gen != b.gen || qb == nil && finished:
		return false, rep, nil
	case int(m.From) >= b.k:
		return false, rep, fmt.Errorf("query %d: batch of step %d from worker %d of %d", m.Q, m.Step, m.From, b.k)
	case qb == nil:
		b.early[m.Q] = append(b.early[m.Q], m)
		return false, rep, nil
	case !m.Marker() && (m.Step+1 < qb.step || m.Step+1 == qb.step && qb.state == running):
		return false, rep, fmt.Errorf("query %d: batch of step %d from worker %d after step %d ran", m.Q, m.Step, m.From, m.Step+1)
	}
	return !m.Marker(), b.take(m.Q, qb, m), nil
}

// take counts batch m of query q unless it is a marker, and files its
// summary.
func (b *barrier) take(q query.ID, qb *qbar, m *protocol.VertexBatch) (rep report) {
	if !m.Marker() {
		qb.recvBatches[m.Step]++
	}
	if m.Summary != nil {
		rep = b.file(q, qb, m.Step, m.From, *m.Summary)
	}
	b.advance(q, qb)
	return rep
}

// file keeps worker w's summary of superstep s of query q, unless the
// decision on s is no longer pending (the controller's release replaced
// it), and takes the decision once every peer's summary is in.
func (b *barrier) file(q query.ID, qb *qbar, s int32, w partition.WorkerID, sum protocol.StepSummary) report {
	if s < qb.step-1 || s == qb.step-1 && qb.state != deciding {
		return report{}
	}
	*b.slot(qb, s, w) = filed{s + 1, sum}
	return b.decide(q, qb)
}

// slot is where worker w's summary of superstep s of query qb is filed.
func (b *barrier) slot(qb *qbar, s int32, w partition.WorkerID) *filed {
	return &qb.sums[int(s&1)*b.k+int(w)]
}

// decide takes the pending decision on the superstep q's run just ran,
// once every peer's summary is in: the one of the controller's round
// (protocol.Rules.Decide). If it continues over some of the peers
// (protocol.Decision.Runs), those release the next superstep themselves,
// as a run over them; otherwise the query waits for the controller. Unless
// the same peers continue, the report of every superstep this worker
// deferred is due: the controller collects the step a run stops or
// narrows at.
func (b *barrier) decide(q query.ID, qb *qbar) (rep report) {
	s := qb.step - 1
	if qb.state != deciding || slices.ContainsFunc(qb.rel.peers, func(w partition.WorkerID) bool {
		return b.slot(qb, s, w).step != s+1
	}) {
		return rep
	}
	sums := qb.scratch.sums[:0]
	for _, w := range qb.rel.peers {
		sums = append(sums, b.slot(qb, s, w).sum)
	}
	qb.scratch.sums = sums
	own := b.slot(qb, s, b.self).sum
	d := &qb.scratch.dec
	qb.rules.Decide(d, s, qb.rel.bestGoal, qb.rel.peers, sums)
	peers := qb.rel.peers
	runs := d.Runs(peers)
	if (!runs || len(d.Next) < len(peers)) && qb.from <= s {
		rep = b.owe(qb, s, own)
	}
	if !runs || !d.Next[b.self] {
		qb.state = idle
		return rep
	}
	if len(d.Next) < len(peers) {
		peers = slices.DeleteFunc(slices.Clone(peers), func(w partition.WorkerID) bool { return !d.Next[w] })
	}
	qb.bestGoal = min(qb.bestGoal, d.BestGoal)
	qb.rel = release{step: s + 1, expect: d.Expect[b.self], bestGoal: d.BestGoal, peers: peers}
	qb.state = held
	b.advance(q, qb)
	return rep
}

// owe closes the report of query qb's supersteps from qb.from to s, whose
// last one's summary is sum.
func (b *barrier) owe(qb *qbar, s int32, sum protocol.StepSummary) report {
	rep := report{due: true, from: qb.from, step: s, sum: sum}
	if len(qb.rel.peers) == 1 {
		rep.localIters = s - qb.from
	}
	qb.from = s + 1
	return rep
}

// prompt says whether a worker of a run of several peers, under rules,
// reports superstep s, whose summary is sum, at once rather than defer it
// to the run's edge. It does whenever its own summary leaves possible an
// end of the run that the controller acts on: a deferred report would then
// reach the controller a peer's flight late. That is when the run may
// widen (it does not span every worker), the worker is quiescent (no
// activation pending, no batch sent), the next superstep reaches MaxIters,
// or the monotone bound may end the query (the worker knows a goal value).
// It reads the worker's own summary and the run, never a peer's summary,
// so when a report is owed does not depend on the order summaries arrive
// in.
func (b *barrier) prompt(rules protocol.Rules, peers int, s int32, sum protocol.StepSummary) bool {
	return peers < b.k ||
		sum.NActiveNext == 0 && !slices.ContainsFunc(sum.SentBatches, func(n int32) bool { return n > 0 }) ||
		rules.MaxIters > 0 && int(s)+1 >= rules.MaxIters ||
		rules.Monotone && sum.BestGoal < query.NoResult
}

// run pops the oldest runnable query and the superstep it computes; ok is
// false when none is queued.
func (b *barrier) run() (q query.ID, step int32, ok bool) {
	for len(b.runnable) > 0 {
		// Deleting keeps the array: a superstep allocates nothing here.
		q = b.runnable[0]
		b.runnable = slices.Delete(b.runnable, 0, 1)
		if qb := b.queries[q]; qb != nil && qb.state == running { // not finished since queued
			return q, qb.step, true
		}
	}
	return 0, 0, false
}

// stepped closes the superstep run returned for q and returns the report
// it makes due, if any. Under a run's release it files this worker's
// summary of the step for the decision, and the report is due when the
// decision stops or narrows the run (see decide): a report covers every
// superstep since the worker's last. A worker of a run of several also
// reports at once when prompt says so, and defers the step otherwise.
// Under any other release it reports every superstep.
func (b *barrier) stepped(q query.ID, res stepResult) report {
	qb := b.queries[q]
	s := qb.step
	qb.step++
	qb.bestGoal = min(qb.bestGoal, res.bestGoal)
	sum := res.summary(qb.bestGoal)
	if qb.rel.peers == nil {
		qb.state = idle
		return b.owe(qb, s, sum)
	}
	peers := qb.rel.peers
	qb.state = deciding
	rep := b.file(q, qb, s, b.self, sum)
	if !rep.due && len(peers) > 1 && b.prompt(qb.rules, len(peers), s, sum) {
		rep = b.owe(qb, s, sum)
	}
	return rep
}

func (b *barrier) finish(q query.ID) {
	delete(b.queries, q)
	delete(b.early, q)
}

// stop enters the global barrier of epoch; its StopAck awaits a marker
// from each of peers workers. The controller sends GlobalStop once no
// round is outstanding, after the QueryFinish of every query that ended,
// on the same FIFO link: a superstep queued here is a protocol error.
func (b *barrier) stop(epoch int32, peers int) error {
	if q, step, ok := b.run(); ok {
		return fmt.Errorf("GlobalStop with a superstep queued: query %d's step %d", q, step)
	}
	b.wait = &stopWait{epoch: epoch, peers: peers}
	b.arrived = make(map[graph.VertexID]bool)
	return nil
}

// marker counts a peer's StopMarker and says, as ack does, whether the
// StopAck is due.
func (b *barrier) marker(epoch int32) (int32, bool) {
	b.markers[epoch]++
	return b.ack()
}

// ack says whether the awaited StopAck is due: every peer's marker of its
// epoch arrived, and links are FIFO, so every batch sent here before the
// stop did too. That epoch's markers and older ones are then spent; one a
// dead peer sent late goes with the next StopAck.
func (b *barrier) ack() (epoch int32, due bool) {
	if b.wait == nil || b.markers[b.wait.epoch] < b.wait.peers {
		return 0, false
	}
	epoch, b.wait = b.wait.epoch, nil
	maps.DeleteFunc(b.markers, func(e int32, _ int) bool { return e <= epoch })
	return epoch, true
}

func (b *barrier) arrive(v graph.VertexID) { b.arrived[v] = true }

func (b *barrier) start() { b.arrived = nil }

// reset drops every query, batch, queued superstep and awaited StopAck
// (one sent now would reach a controller that left the aborted barrier)
// for recovery generation gen.
func (b *barrier) reset(gen int32) {
	*b = newBarrier(b.self, b.k)
	b.gen = gen
}
