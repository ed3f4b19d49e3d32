package worker

import (
	"fmt"
	"slices"

	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// batchMsgs caps a vertex batch at 32 KiB of 12-byte entries. A superstep
// sends a query's combined output for one peer as one batch under that cap:
// one frame a superstep a peer. The paper batches 32 messages (Sec.
// 4.1(iv)); then a frame's fixed cost (a write, a read, a decode and a
// handoff to the receiver's event loop) is paid once per 32 messages.
const batchMsgs = 32 << 10 / 12

// stepResult summarises one computed superstep.
type stepResult struct {
	processed   int32
	nActiveNext int32
	sent        []int32 // batches sent per destination worker
	// minFrontier bounds every value still in flight: the batches just
	// sent and every message not yet consumed.
	minFrontier float64
	bestGoal    float64 // the best goal value the superstep found
}

// summary is the step's summary for the barrier's decision, with best the
// best goal this worker has seen, the step's included.
func (res stepResult) summary(best float64) protocol.StepSummary {
	return protocol.StepSummary{NActiveNext: res.nActiveNext, MinFrontier: res.minFrontier, BestGoal: best, SentBatches: res.sent}
}

// stepOnce computes superstep step of query q, which the barrier queued,
// and sends the report the barrier says is due, if any. One superstep runs
// per call, so concurrent queries interleave fairly.
func (w *Worker) stepOnce(q query.ID, step int32) error {
	qs := w.queries[q]
	t0 := w.cfg.Clock()
	res, err := w.computeStep(qs, step)
	if err != nil {
		return fmt.Errorf("query %d step %d: %w", q, step, err)
	}
	// Fault seam inside the timed section: an armed hook that sleeps here
	// inflates this worker's reported ComputeNS, modeling a straggler for
	// the health layer's detector without touching the compute itself.
	faultpoint.Hit(faultpoint.WorkerComputeSlow, int(w.id), int(q), int(step))
	qs.computeNS += w.cfg.Clock().Sub(t0).Nanoseconds()
	qs.processed += res.processed
	// Fault seam: a worker dying mid-superstep has computed (and possibly
	// sent vertex batches) but never reports — its barrier wedges until
	// liveness detection and recovery re-execute the query.
	if faultpoint.Hit(faultpoint.WorkerSuperstep, int(w.id), int(q), int(step)) {
		return faultpoint.ErrKilled
	}
	if rep := w.bar.stepped(q, res); rep.due {
		w.sendSynch(q, qs, rep)
	}
	return nil
}

// computeStep executes one superstep of qs: run the vertex function on
// every vertex of the step's lane, with its combined message, stage
// emissions, and flush remote batches. In a run of several workers the last
// batch to each other peer carries the step's summary, on a marker if the
// step sent that peer nothing.
func (w *Worker) computeStep(qs *queryState, step int32) (stepResult, error) {
	vs, p := qs.verts, step&1
	res := stepResult{
		processed:   int32(len(vs.active[p])),
		minFrontier: query.NoResult,
		bestGoal:    query.NoResult,
		sent:        make([]int32, w.k),
	}
	// The query's pinned snapshot, not w.view: commits landing while this
	// query runs must be invisible to it (MVCC snapshot isolation).
	g, spec, prog := qs.view, qs.spec, qs.prog
	emit := func(to graph.VertexID, val float64) {
		dst := w.owner[to]
		if dst == w.id {
			if err := vs.post(step+1, to, val, prog); err != nil && w.emitErr == nil {
				w.emitErr = err
			}
			return
		}
		buf := w.outBuf[dst]
		if buf == nil {
			buf = w.table()
			w.outBuf[dst] = buf
		}
		if i, had := buf.ref(to); had {
			buf.vals[i] = prog.Combine(buf.vals[i], val)
		} else {
			buf.vals[i] = val
		}
	}

	for _, i := range vs.active[p] {
		e := &vs.vals[i]
		if e.step[p] != step+1 { // a lane holds one superstep's messages
			return res, fmt.Errorf("vertex %d: message for superstep %d in superstep %d's lane", vs.keys[i], e.step[p]-1, step)
		}
		e.step[p] = 0
		newVal, changed := prog.Compute(g, spec, vs.keys[i], e.val, e.has, e.msg[p], emit)
		if !changed {
			continue
		}
		qs.touch(int(i))
		vs.vals[i].val = newVal // emissions may have grown the table: not e
		if prog.Goal(g, spec, vs.keys[i], newVal) {
			res.bestGoal = min(res.bestGoal, newVal)
		}
	}
	vs.active[p] = vs.active[p][:0]
	// Remote buffers and pending messages, which are all for the next
	// superstep, bound the frontier.
	for dst, buf := range w.outBuf {
		if buf == nil {
			continue
		}
		for _, val := range buf.vals {
			res.minFrontier = min(res.minFrontier, val)
		}
		res.sent[dst] = int32((buf.len() + batchMsgs - 1) / batchMsgs)
	}
	for _, i := range vs.active[1-p] {
		res.minFrontier = min(res.minFrontier, vs.vals[i].msg[1-p])
	}
	res.nActiveNext = int32(len(vs.active[1-p]))

	var sum *protocol.StepSummary
	qb := w.bar.queries[spec.ID]
	if len(qb.rel.peers) > 1 { // a run of one has no peer to send it to
		s := res.summary(min(qb.bestGoal, res.bestGoal))
		sum = &s
	}
	for dst, buf := range w.outBuf {
		var entries []protocol.VertexMsg
		if buf != nil {
			w.outBuf[dst] = nil
			entries = make([]protocol.VertexMsg, 0, buf.len())
			for i, v := range buf.keys {
				entries = append(entries, protocol.VertexMsg{To: v, Val: buf.vals[i]})
			}
			w.free(buf)
		}
		last := sum
		if partition.WorkerID(dst) == w.id || !slices.Contains(qb.rel.peers, partition.WorkerID(dst)) {
			last = nil
		}
		w.sendBatch(spec.ID, step, partition.WorkerID(dst), entries, last)
	}
	err := w.emitErr
	w.emitErr = nil
	return res, err
}

// sendBatch ships entries to worker dst, split into batches of batchMsgs,
// the last carrying sum; with no entries, sum goes on a marker.
func (w *Worker) sendBatch(q query.ID, step int32, dst partition.WorkerID, entries []protocol.VertexMsg, sum *protocol.StepSummary) {
	for len(entries) > 0 || sum != nil {
		n := min(len(entries), batchMsgs)
		m := &protocol.VertexBatch{Q: q, Step: step, From: w.id, Gen: w.bar.gen, Entries: entries[:n:n]}
		if entries = entries[n:]; len(entries) == 0 {
			m.Summary, sum = sum, nil
		}
		w.conn.Send(protocol.WorkerNode(dst), m)
	}
}

// sendSynch sends the controller report rep of query q, with the scope
// size piggybacked (Sec. 3.4); intersections wait for a StatsPull.
// ComputeNS, Processed and NewBlocks cover every superstep since the last
// report.
func (w *Worker) sendSynch(q query.ID, qs *queryState, rep report) {
	computeNS, processed, newBlocks := qs.computeNS, qs.processed, qs.newBlocks
	qs.computeNS, qs.processed, qs.newBlocks = 0, 0, nil // the message keeps the slice
	// Sorted, neighbours differ by a byte on the wire; in touch order a
	// scattered scope's differences take two (social_pagerank's barrier
	// bytes grow by 41 %). The blocks are distinct.
	newBlocks = protocol.SortBlocks(newBlocks, &w.bits)
	w.conn.Send(protocol.ControllerNode, &protocol.BarrierSynch{
		Q: q, W: w.id,
		Step:        rep.step,
		FromStep:    rep.from,
		LocalIters:  rep.localIters,
		Processed:   processed,
		NActiveNext: rep.sum.NActiveNext,
		ComputeNS:   computeNS,
		ScopeSize:   qs.verts.scope,
		SentBatches: rep.sum.SentBatches,
		BestGoal:    rep.sum.BestGoal,
		MinFrontier: rep.sum.MinFrontier,
		NewBlocks:   newBlocks,
	})
}
