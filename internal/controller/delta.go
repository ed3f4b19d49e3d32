package controller

import (
	"fmt"
	"slices"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/wal"
)

// This file is the controller side of the streaming-update data plane
// (internal/delta): Mutate calls stage operations into a pending batch,
// and the batch commits to version v+1 off the global barrier. It is
// sealed — version assigned, new vertices placed — and handed to the WAL
// group committer; once the shared fsync reports it durable, the event
// loop applies it to the committed view, broadcasts the DeltaBatch to the
// workers, and acknowledges the callers.
// No query stops: each query pinned an immutable snapshot at admission
// (query.Spec.PinVersion) and runs to completion against it, so commit
// latency is seal→fsync→apply instead of a function of the longest-running
// superstep. The global STOP/START barrier remains for repartitioning and
// recovery only. A batch reaches the fsynced WAL before any caller is told
// it committed.

// maxSealedInFlight caps batches sealed but not yet applied. It sits well
// below the WAL group committer's queue depth, so Enqueue never blocks the
// event loop; at the cap, staged ops simply keep accumulating into a
// bigger next batch.
const maxSealedInFlight = 128

// sealedBatch is one commit in flight: sealed (version assigned, handed to
// the WAL group committer) but not yet durable and applied.
type sealedBatch struct {
	batch    *protocol.DeltaBatch
	muts     []pendingMut
	sealedAt time.Time
}

// onMutate validates and stages one client batch. During a recovery
// episode the batch stays staged (sealing needs a settled live set) and
// commits once recovery completes — callers see latency, not failure.
func (c *Controller) onMutate(req mutateReq) {
	if c.terminal {
		req.ch <- MutationResult{Err: fmt.Errorf("controller: degraded (no live workers)")}
		return
	}
	// Range-validate against the staged future: committed view plus every
	// vertex an earlier staged or sealed op will add.
	n := c.curView.Load().NumVertices() + c.pendingNewV
	for _, sb := range c.sealed {
		n += len(sb.batch.NewOwners)
	}
	nAfter := n
	var err error
	for i, op := range req.ops {
		if nAfter, err = op.Validate(nAfter); err != nil {
			req.ch <- MutationResult{Err: fmt.Errorf("op %d: %w", i, err)}
			return
		}
	}
	c.pendingOps = append(c.pendingOps, req.ops...)
	c.pendingNewV += nAfter - n
	c.pendingMuts = append(c.pendingMuts, pendingMut{n: len(req.ops), ch: req.ch})
	if c.firstOpAt.IsZero() {
		c.firstOpAt = c.cfg.Clock()
	}
	c.maybeCommit(c.cfg.Clock())
}

// maybeCommit seals the staged batch once it is old or big enough.
func (c *Controller) maybeCommit(now time.Time) {
	if c.terminal || len(c.pendingOps) == 0 {
		return
	}
	if len(c.pendingOps) < c.cfg.MaxBatchOps && now.Sub(c.firstOpAt) < c.cfg.CommitEvery {
		return
	}
	// Sealing needs no barrier, but recovery is still resolving who is
	// alive (new-vertex placement and the round's version-equality check
	// both depend on it), and the in-flight cap bounds queued fsyncs.
	if c.phase == phaseRecover || len(c.sealed) >= maxSealedInFlight {
		return
	}
	c.seal()
}

// assignNewOwners places each AddVertex of ops on the least-loaded live
// worker, counting vertices that earlier sealed-but-unapplied batches will
// add.
func (c *Controller) assignNewOwners(ops []delta.Op) []partition.WorkerID {
	var owners []partition.WorkerID
	counts := append([]int64(nil), c.vertCount...)
	for _, sb := range c.sealed {
		for _, o := range sb.batch.NewOwners {
			counts[o]++
		}
	}
	for _, op := range ops {
		if op.Kind != delta.OpAddVertex {
			continue
		}
		best := -1
		for w := 0; w < c.cfg.K; w++ {
			if c.deadWorkers[partition.WorkerID(w)] {
				continue
			}
			if best < 0 || counts[w] < counts[best] {
				best = w
			}
		}
		owners = append(owners, partition.WorkerID(best))
		counts[best]++
	}
	return owners
}

// seal seals the staged ops into version sealedHead+1 and hands
// the batch to the WAL group committer; application happens when the
// shared fsync acks through walAckCh. Without a WAL there is nothing to
// wait for — a synthetic completion rides the same channel so the apply
// path (and its fatal-error handling) stays single.
func (c *Controller) seal() {
	owners := c.assignNewOwners(c.pendingOps)
	c.sealedHead++
	sb := &sealedBatch{
		batch: &protocol.DeltaBatch{
			Version:   c.sealedHead,
			Ops:       c.pendingOps,
			NewOwners: owners,
		},
		muts:     c.pendingMuts,
		sealedAt: c.cfg.Clock(),
	}
	c.sealed = append(c.sealed, sb)
	c.sealedInFlight.Store(int64(len(c.sealed)))
	c.pendingOps, c.pendingMuts, c.pendingNewV, c.firstOpAt = nil, nil, 0, time.Time{}
	if c.cfg.WAL != nil {
		c.cfg.WAL.Enqueue(sb.batch.Version, sb.batch.Ops, c.walAckCh)
		return
	}
	c.walAckCh <- wal.AppendAck{Version: sb.batch.Version, GroupSize: 1, First: true}
}

// onWalAck receives one group-commit completion in the event loop: the
// batch at the head of the sealed FIFO is durable (acks arrive in version
// order) and can be applied — unless a recovery round is holding the
// committed version still, in which case the completion queues until
// resume.
func (c *Controller) onWalAck(ack wal.AppendAck) error {
	if ack.Err != nil {
		// The WAL could not make the batch durable (or closed under us).
		// Acknowledging an op the disk never saw would break the restart
		// contract, so the engine stops loudly; the sealed callers get
		// explicit errors from the shutdown path.
		return fmt.Errorf("controller: wal append version %d: %w", ack.Version, ack.Err)
	}
	if c.terminal || len(c.sealed) == 0 {
		// Terminal teardown already failed the sealed callers: the batch is
		// durable but will never be acknowledged (a restart may recover it,
		// which the contract allows — durable-but-unacked may survive).
		return nil
	}
	if co := c.obs; co != nil && ack.First && c.cfg.WAL != nil {
		co.walFsyncSeconds.Observe(float64(ack.FsyncUS) / 1e6)
		co.walFsyncCount.Inc()
		co.fsyncBatchSize.Observe(float64(ack.GroupSize))
	}
	if c.phase == phaseRecover {
		// Applying would move the committed version mid-round, under the
		// PartitionAck equality check; resume drains the queue once the
		// live set settled.
		c.durableQ = append(c.durableQ, ack)
		return nil
	}
	return c.applyDurable(ack)
}

// drainDurable applies completions buffered during a recovery round.
// Called from resume, after restarted queries re-pinned the recovered
// version — per-link FIFO then guarantees their ExecuteQuery precedes
// these batches' DeltaBatch broadcasts on every link.
func (c *Controller) drainDurable() error {
	for len(c.durableQ) > 0 {
		ack := c.durableQ[0]
		c.durableQ = c.durableQ[1:]
		if err := c.applyDurable(ack); err != nil {
			return err
		}
	}
	return nil
}

// applyDurable applies the durable head of the sealed FIFO: advance the
// committed view, broadcast the batch off-barrier, and acknowledge the
// callers. Running queries are untouched — each keeps the view of the
// version it was pinned at.
func (c *Controller) applyDurable(ack wal.AppendAck) error {
	sb := c.sealed[0]
	if sb.batch.Version != ack.Version {
		return fmt.Errorf("controller: wal acked version %d, expected %d", ack.Version, sb.batch.Version)
	}
	batch := sb.batch
	nv, statuses, err := c.curView.Load().Apply(batch.Ops)
	if err != nil {
		// The batch was validated when staged; failing here means the
		// durable log and the in-memory chain diverged — fatal.
		return fmt.Errorf("controller: committed batch %d failed to apply: %w", batch.Version, err)
	}
	// The subscriber hears of the version before anyone can read it: whoever
	// sees GraphVersion() == v finds the cache already rid of what v touched.
	if fn := c.onCommit.Load(); fn != nil {
		(*fn)(batch.Version, fromBlocks(batch.Ops))
	}
	c.curView.Store(nv)
	c.publishMVCC()
	preBytes := c.deltaLog.Bytes()
	if err := c.deltaLog.Append(batch.Version, batch.Ops); err != nil {
		// Impossible: versions apply contiguously from this one loop.
		return fmt.Errorf("controller: %w", err)
	}
	if c.cfg.WAL != nil && faultpoint.Hit(faultpoint.WALAppend) {
		// Simulated crash between the group fsync and the ack: the batch is
		// durable but nobody was told — restart must recover it. The batch
		// stays at the head of the sealed FIFO so the shutdown path fails
		// its callers explicitly ("batch state unknown").
		return faultpoint.ErrKilled
	}
	// Past the last fatal exit: the batch leaves the FIFO and its callers
	// get acknowledged.
	c.sealed = c.sealed[1:]
	c.sealedInFlight.Store(int64(len(c.sealed)))
	c.snapOps += len(batch.Ops)
	c.snapBytes += c.deltaLog.Bytes() - preBytes
	c.updateLogMirrors()
	c.maybeCheckpoint(c.cfg.Clock())
	c.owner = append(c.owner, batch.NewOwners...)
	for _, o := range batch.NewOwners {
		c.vertCount[o]++
	}
	// Off-barrier version bump: workers apply the batch between supersteps;
	// queries in flight keep the view they were pinned at. Broadcast
	// ordering relative to ExecuteQuery on each link is what puts every
	// worker at exactly the pinned version (see onSchedule).
	c.broadcast(batch)
	i := 0
	for _, pm := range sb.muts {
		applied, noops := 0, 0
		for j := 0; j < pm.n; j++ {
			if statuses[i+j] == delta.OpNoOp {
				noops++
			} else {
				applied++
			}
		}
		i += pm.n
		pm.ch <- MutationResult{Version: batch.Version, Applied: applied, NoOps: noops}
	}
	if co := c.obs; co != nil {
		co.commitSeconds.Observe(c.cfg.Clock().Sub(sb.sealedAt).Seconds())
	}
	// A seal may have been held back by the in-flight cap.
	c.maybeCommit(c.cfg.Clock())
	return nil
}

// fromBlocks returns the sorted signature blocks of the vertices whose
// out-edges ops change. A new vertex has no edges and is in no scope.
func fromBlocks(ops []delta.Op) []int32 {
	blocks := make([]int32, 0, len(ops))
	for _, op := range ops {
		if op.Kind != delta.OpAddVertex {
			blocks = append(blocks, protocol.BlockOf(op.From))
		}
	}
	slices.Sort(blocks)
	return slices.Compact(blocks)
}

// onDeltaAck records how far worker m.W's replica has applied. Commits
// never wait for these acks — they only feed replication-lag accounting.
func (c *Controller) onDeltaAck(m *protocol.DeltaAck) error {
	if int(m.W) < len(c.ackVersion) && m.Version > c.ackVersion[m.W] {
		c.recordAck(m.W, m.Version)
	}
	return nil
}

// recordAck notes that live worker w's replica is at version v and
// recomputes the slowest live replica's version (MVCCStats.MaxWorkerLag).
func (c *Controller) recordAck(w partition.WorkerID, v uint64) {
	c.ackVersion[w] = v
	min := v
	for i, acked := range c.ackVersion {
		if !c.deadWorkers[partition.WorkerID(i)] && acked < min {
			min = acked
		}
	}
	c.minAckedVersion.Store(min)
}
