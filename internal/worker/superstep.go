package worker

import (
	"slices"
	"time"

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
	sentTotal   int32
	minFrontier float64
}

// stepOnce computes the query's next superstep under its active release.
// When the release marks this worker as solo and the query stayed local,
// the query is re-queued for another local superstep instead of reporting
// a barrier message (the local query barrier of Sec. 3.3) — but only one
// superstep runs per call, so concurrent queries interleave fairly.
func (w *Worker) stepOnce(q query.ID, qs *queryState) error {
	step := qs.step
	t0 := time.Now()
	res := w.computeStep(qs, step)
	// Fault seam inside the timed section: an armed hook that sleeps here
	// inflates this worker's reported ComputeNS, modeling a straggler for
	// the health layer's detector without touching the compute itself.
	faultpoint.Hit(faultpoint.WorkerComputeSlow, int(w.id), int(q), int(step))
	qs.computeNS += time.Since(t0).Nanoseconds()
	// Fault seam: a worker dying mid-superstep has computed (and possibly
	// sent vertex batches) but never reports — its barrier wedges until
	// liveness detection and recovery re-execute the query.
	if faultpoint.Hit(faultpoint.WorkerSuperstep, int(w.id), int(q), int(step)) {
		return faultpoint.ErrKilled
	}
	canLoop := qs.release.Solo &&
		!w.stopping &&
		res.sentTotal == 0 &&
		res.nActiveNext > 0 &&
		!(qs.prog.Monotone() && res.minFrontier >= qs.bestGoal) &&
		(qs.spec.MaxIters == 0 || int(step+1) < qs.spec.MaxIters)
	if canLoop {
		w.ready = append(w.ready, q)
		return nil
	}
	qs.release = nil
	w.sendSynch(q, qs, qs.soloFrom, step, res)
	return nil
}

// computeStep executes one superstep of qs: consume the combined inbox,
// run the vertex function per active vertex, stage emissions, and flush
// remote batches.
func (w *Worker) computeStep(qs *queryState, step int32) stepResult {
	box := qs.inbox[step]
	delete(qs.inbox, step)

	res := stepResult{
		processed:   int32(box.len()),
		minFrontier: query.NoResult,
		sent:        make([]int32, w.k),
	}
	// The query's pinned snapshot, not w.view: commits landing while this
	// query runs must be invisible to it (MVCC snapshot isolation).
	g, spec, prog := qs.view, qs.spec, qs.prog
	emit := func(to graph.VertexID, val float64) {
		dst := w.owner[to]
		if dst == w.id {
			w.combineIn(qs, step+1, to, val)
			return
		}
		buf := w.outBuf[dst]
		if buf == nil {
			buf = w.table()
			w.outBuf[dst] = buf
		}
		buf.combine(to, val, prog)
	}

	if box != nil {
		for i, v := range box.keys {
			old, hasOld := qs.data.get(v)
			newVal, changed := prog.Compute(g, spec, v, old, hasOld, box.vals[i], emit)
			if !changed {
				continue
			}
			if !hasOld {
				qs.touch(v)
			}
			qs.data.set(v, newVal)
			if prog.Goal(g, spec, v, newVal) && newVal < qs.bestGoal {
				qs.bestGoal = newVal
			}
		}
		w.free(box)
	}
	if w.cfg.ComputeCost > 0 && res.processed > 0 {
		// Accumulate simulated compute and sleep in ~1ms quanta: short
		// sleeps oversleep by scheduler granularity, which would inflate
		// every superstep's critical path instead of modelling load.
		w.computeDebt += time.Duration(res.processed) * w.cfg.ComputeCost
		if w.computeDebt >= time.Millisecond {
			time.Sleep(w.computeDebt)
			w.computeDebt = 0
		}
	}

	// Flush remote buffers as batches and fold their values into the
	// frontier bound.
	for dst := 0; dst < w.k; dst++ {
		buf := w.outBuf[dst]
		if buf == nil {
			continue
		}
		w.outBuf[dst] = nil
		entries := make([]protocol.VertexMsg, 0, buf.len())
		for i, v := range buf.keys {
			entries = append(entries, protocol.VertexMsg{To: v, Val: buf.vals[i]})
			res.minFrontier = min(res.minFrontier, buf.vals[i])
		}
		w.free(buf)
		res.sent[dst] = w.sendBatch(qs.spec.ID, step, partition.WorkerID(dst), entries)
		res.sentTotal += res.sent[dst]
	}

	// Local activations pending for the next superstep also bound the
	// frontier.
	next := qs.inbox[step+1]
	if next != nil {
		for _, val := range next.vals {
			res.minFrontier = min(res.minFrontier, val)
		}
	}
	res.nActiveNext = int32(next.len())
	qs.step = step + 1
	return res
}

// sendBatch ships entries to worker dst, splitting them into batches of
// batchMsgs, and returns the number of batches sent.
func (w *Worker) sendBatch(q query.ID, step int32, dst partition.WorkerID, entries []protocol.VertexMsg) int32 {
	var batches int32
	for len(entries) > 0 {
		n := min(len(entries), batchMsgs)
		w.conn.Send(protocol.WorkerNode(dst), &protocol.VertexBatch{
			Q: q, Step: step, From: w.id, Gen: w.gen, Entries: entries[:n:n],
		})
		entries = entries[n:]
		batches++
	}
	return batches
}

// sendSynch reports a completed superstep range to the controller with the
// scope size piggybacked (Sec. 3.4); intersections wait for a StatsPull.
func (w *Worker) sendSynch(q query.ID, qs *queryState, fromStep, step int32, res stepResult) {
	minFrontier := res.minFrontier
	// Older pending inboxes (from earlier remote activations) also bound
	// the frontier; include everything still buffered.
	for s, box := range qs.inbox {
		if s == step+1 {
			continue // already folded in
		}
		for _, val := range box.vals {
			minFrontier = min(minFrontier, val)
		}
	}
	computeNS, newBlocks := qs.computeNS, qs.newBlocks
	qs.computeNS, qs.newBlocks = 0, nil // the message keeps the slice
	slices.Sort(newBlocks)              // neighbours differ by a byte on the wire
	w.conn.Send(protocol.ControllerNode, &protocol.BarrierSynch{
		Q: q, W: w.id,
		Step:        step,
		FromStep:    fromStep,
		LocalIters:  step - fromStep,
		Processed:   res.processed,
		NActiveNext: res.nActiveNext,
		ComputeNS:   computeNS,
		ScopeSize:   int32(qs.data.len()),
		SentBatches: res.sent,
		BestGoal:    qs.bestGoal,
		MinFrontier: minFrontier,
		NewBlocks:   newBlocks,
	})
}
