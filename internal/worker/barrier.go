package worker

import (
	"fmt"
	"maps"
	"slices"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// barrier is the worker's half of the hybrid barrier (Sec. 3.3); the
// controller's round is the other. It decides when a released superstep
// may run, whether a solo query loops on locally or reports, what becomes
// of a vertex batch, and when a StopAck is due. Its transitions read nothing
// but the machine and their arguments — no connection, clock, table or
// graph — and only they assign its fields.
type barrier struct {
	gen     int32 // the recovery generation: batches of another are stale
	queries map[query.ID]*qbar
	// runnable queues the queries with a superstep to run, oldest first:
	// one superstep per turn, so a long solo query cannot monopolize the
	// worker (multi-query execution, Sec. 3.3).
	runnable []query.ID
	early    map[query.ID][]*protocol.VertexBatch // raced ahead of ExecuteQuery

	// The global barrier. stopping holds from GlobalStop (or a recovery
	// reset) to GlobalStart. wait is the StopAck that awaits its peers'
	// markers, counted per epoch: they may run ahead of this worker's own
	// GlobalStop. arrived holds the vertices ScopeData brought from
	// GlobalStop to GlobalStart: move directives exclude them, so chained
	// ones (q: w1→w2 and q: w2→w3) relocate exactly the scopes the
	// controller saw, in any delivery order.
	stopping bool
	wait     *stopWait
	markers  map[int32]int
	arrived  map[graph.VertexID]bool
}

type stopWait struct {
	epoch int32
	peers int // markers due, one per other live worker
}

// qbar is one query's barrier state on this worker.
type qbar struct {
	monotone bool // the program's bound may end a solo loop
	maxIters int  // 0 is unbounded
	rel      release
	state    relState
	step     int32 // the next superstep to compute
	// recvBatches[s] counts the batches received that superstep s sent.
	recvBatches map[int32]int32
	bestGoal    float64
}

// release is a BarrierReady's content. A running release's step is where
// its solo loop started.
type release struct {
	step, expect  int32
	solo, drained bool
}

type relState uint8

const (
	idle    relState = iota // reported, or never released
	held                    // awaiting expected batches
	running                 // queued, or looping solo
)

func newBarrier() barrier {
	return barrier{
		queries: make(map[query.ID]*qbar),
		early:   make(map[query.ID][]*protocol.VertexBatch),
		markers: make(map[int32]int),
	}
}

// execute registers query q and returns the batches that raced ahead of
// it, counted as received.
func (b *barrier) execute(q query.ID, monotone bool, maxIters int) []*protocol.VertexBatch {
	qb := &qbar{monotone: monotone, maxIters: maxIters, recvBatches: make(map[int32]int32), bestGoal: query.NoResult}
	buffered := b.early[q]
	delete(b.early, q)
	for _, m := range buffered {
		qb.recvBatches[m.Step]++
	}
	b.queries[q] = qb
	return buffered
}

// ready takes release r of query q. It is held until r.expect batches of
// the superstep before arrived, unless it is drained: the first release
// after a global barrier, whose markers proved every batch in.
func (b *barrier) ready(q query.ID, r release) error {
	qb := b.queries[q]
	if qb == nil {
		return fmt.Errorf("barrierReady for unknown query %d", q)
	}
	if qb.state != idle {
		return fmt.Errorf("query %d: release of step %d while step %d's is outstanding", q, r.step, qb.rel.step)
	}
	qb.rel, qb.state = r, held
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

// batch counts vertex batch m and says whether to deliver its entries. It
// drops a batch from before a recovery reset and, if finished, one of a
// query that finished here (the controller finishes a query once no
// improving message can exist), and buffers one that raced ahead of its
// ExecuteQuery. A batch for a superstep whose consumer ran or started is a
// protocol error: that release counted every batch there was.
func (b *barrier) batch(m *protocol.VertexBatch, finished bool) (deliver bool, err error) {
	qb := b.queries[m.Q]
	switch {
	case m.Gen != b.gen || qb == nil && finished:
		return false, nil
	case qb == nil:
		b.early[m.Q] = append(b.early[m.Q], m)
		return false, nil
	case m.Step+1 < qb.step || m.Step+1 == qb.step && qb.state == running:
		return false, fmt.Errorf("query %d: batch of step %d from worker %d after step %d ran", m.Q, m.Step, m.From, m.Step+1)
	}
	qb.recvBatches[m.Step]++
	b.advance(m.Q, qb)
	return true, nil
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

// stepped closes the superstep run returned for q and says whether to
// report the release. A solo release loops on with no controller round
// trip (the local query barrier) until a global barrier forms, a batch
// leaves (its receiver must be released), no vertex is active next, the
// monotone bound says nothing in flight can beat the best goal, or
// MaxIters is reached.
func (b *barrier) stepped(q query.ID, res stepResult) (report bool) {
	qb := b.queries[q]
	qb.step++
	qb.bestGoal = min(qb.bestGoal, res.bestGoal)
	if qb.rel.solo && !b.stopping && res.sentTotal == 0 && res.nActiveNext > 0 &&
		!(qb.monotone && res.minFrontier >= qb.bestGoal) && (qb.maxIters == 0 || int(qb.step) < qb.maxIters) {
		b.runnable = append(b.runnable, q)
		return false
	}
	qb.state = idle
	return true
}

func (b *barrier) finish(q query.ID) {
	delete(b.queries, q)
	delete(b.early, q)
}

// stop enters the global barrier of epoch; its StopAck awaits a marker
// from each of peers workers. Running solo loops report out.
func (b *barrier) stop(epoch int32, peers int) {
	b.stopping = true
	b.wait = &stopWait{epoch: epoch, peers: peers}
	b.arrived = make(map[graph.VertexID]bool)
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

func (b *barrier) start() { b.stopping, b.arrived = false, nil }

// reset drops every query, batch, queued superstep and awaited StopAck
// (one sent now would reach a controller that left the aborted barrier)
// for recovery generation gen. Recovery acts as a global barrier: the
// worker is stopping until its GlobalStart.
func (b *barrier) reset(gen int32) {
	*b = newBarrier()
	b.gen, b.stopping = gen, true
}
