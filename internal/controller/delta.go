package controller

import (
	"fmt"
	"slices"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/snapshot"
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

// MutationResult reports the outcome of one Mutate call after its batch
// committed: the graph version the ops landed in, how many applied, and
// how many were no-ops (remove/set_weight of a non-existent edge).
type MutationResult struct {
	Version uint64
	Applied int
	NoOps   int
	Err     error
}

// mutateReq carries one client mutation batch into the event loop.
type mutateReq struct {
	ops []delta.Op
	ch  chan<- MutationResult
}

// pendingMut tracks one client batch staged for the next commit; n is its
// op count (for splitting the commit's per-op statuses back per caller).
type pendingMut struct {
	n  int
	ch chan<- MutationResult
}

// maxSealedInFlight caps batches sealed but not yet applied. It sits well
// below the WAL group committer's queue depth, so Enqueue never blocks the
// event loop; at the cap, staged ops simply keep accumulating into a
// bigger next batch.
const maxSealedInFlight = 128

// commits is the commit pipeline, from Mutate to apply and on to the
// checkpoint cut. Its transitions (here and in checkpoint.go) read nothing
// but it and their arguments — no connection, channel, goroutine, clock or
// instrument — and only they assign its fields.
type commits struct {
	maxBatchOps int
	commitEvery time.Duration
	policy      snapshot.Policy
	private     bool // Config.privateSnapshots: a cut never truncates the log
	onDisk      bool // the store persists to a directory, where a cut can fail

	ops     []delta.Op // staged for muts' callers
	muts    []pendingMut
	newV    int       // vertices the staged ops add
	firstAt time.Time // when the first staged op arrived
	// sealed holds the batches sealed and not yet applied, in version
	// order, head the last sealed version. Completions arrive in version
	// order, so the durable batches are a prefix of the FIFO.
	sealed []*sealedBatch
	head   uint64
	// Log growth since the last cut, and its time and version.
	snapOps         int
	snapBytes       int64
	lastSnapAt      time.Time
	lastSnapVersion uint64
	cut             *cutPin                // the cut in flight, nil when none
	next            []chan snapshot.Result // requests for the next cut
}

// sealedBatch is one commit in flight: sealed, durable once its group
// commit completed, and not yet applied.
type sealedBatch struct {
	batch   *protocol.DeltaBatch
	muts    []pendingMut
	durable bool
}

// stage validates ops against the staged future — the n committed
// vertices plus every vertex an earlier staged or sealed op will add — and
// stages them for ch.
func (p *commits) stage(ops []delta.Op, ch chan<- MutationResult, n int, now time.Time) error {
	n += p.newV
	for _, sb := range p.sealed {
		n += len(sb.batch.NewOwners)
	}
	nAfter := n
	var err error
	for i, op := range ops {
		if nAfter, err = op.Validate(nAfter); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	p.ops = append(p.ops, ops...)
	p.newV += nAfter - n
	p.muts = append(p.muts, pendingMut{n: len(ops), ch: ch})
	if p.firstAt.IsZero() {
		p.firstAt = now
	}
	return nil
}

// due says whether the staged batch seals at now: it is big or old
// enough, no recovery round is resolving who is alive (new-vertex
// placement and the round's version-equality check both depend on it),
// and the in-flight cap leaves room.
func (p *commits) due(now time.Time, recovering bool) bool {
	if len(p.ops) == 0 || recovering || len(p.sealed) >= maxSealedInFlight {
		return false
	}
	return len(p.ops) >= p.maxBatchOps || now.Sub(p.firstAt) >= p.commitEvery
}

// seal seals the staged ops into version head+1, placing each AddVertex
// on the least-loaded worker not in dead, counting vertCount and the
// vertices earlier sealed batches will add.
func (p *commits) seal(vertCount []int64, dead map[partition.WorkerID]bool) *sealedBatch {
	var owners []partition.WorkerID
	counts := slices.Clone(vertCount)
	for _, sb := range p.sealed {
		for _, o := range sb.batch.NewOwners {
			counts[o]++
		}
	}
	for _, op := range p.ops {
		if op.Kind != delta.OpAddVertex {
			continue
		}
		best := leastLoaded(counts, dead)
		owners = append(owners, partition.WorkerID(best))
		counts[best]++
	}
	p.head++
	sb := &sealedBatch{
		batch: &protocol.DeltaBatch{Version: p.head, Ops: p.ops, NewOwners: owners},
		muts:  p.muts,
	}
	p.sealed = append(p.sealed, sb)
	p.ops, p.muts, p.newV, p.firstAt = nil, nil, 0, time.Time{}
	return sb
}

// durable marks the batch at version durable. Completions arrive in
// version order, so it must be the oldest batch not yet durable.
func (p *commits) durable(version uint64) error {
	want := p.head + 1
	if i := slices.IndexFunc(p.sealed, func(sb *sealedBatch) bool { return !sb.durable }); i >= 0 {
		if want = p.sealed[i].batch.Version; want == version {
			p.sealed[i].durable = true
			return nil
		}
	}
	return fmt.Errorf("controller: wal acked version %d, expected %d", version, want)
}

// ready is the batch to apply next: the head of the FIFO once durable, and
// none while a recovery round holds the committed version still.
func (p *commits) ready(holding bool) *sealedBatch {
	if holding || len(p.sealed) == 0 || !p.sealed[0].durable {
		return nil
	}
	return p.sealed[0]
}

// applied retires the head batch, which applied with the per-op statuses
// and grew the op log by grew bytes, and splits the statuses into each
// caller's result.
func (p *commits) applied(statuses []delta.OpStatus, grew int64) []MutationResult {
	sb := p.sealed[0]
	p.sealed = p.sealed[1:]
	p.snapOps += len(sb.batch.Ops)
	p.snapBytes += grew
	res := make([]MutationResult, len(sb.muts))
	for i, pm := range sb.muts {
		noops := 0
		for _, st := range statuses[:pm.n] {
			if st == delta.OpNoOp {
				noops++
			}
		}
		res[i] = MutationResult{Version: sb.batch.Version, Applied: pm.n - noops, NoOps: noops}
		statuses = statuses[pm.n:]
	}
	return res
}

// remap moves the new vertices of every sealed batch off the workers in
// dead: the batch may already be durable in the WAL, but its placement
// must land on workers that still exist. It balances as seal does, on
// vertCount plus every earlier sealed vertex.
func (p *commits) remap(vertCount []int64, dead map[partition.WorkerID]bool) {
	counts := slices.Clone(vertCount)
	for _, sb := range p.sealed {
		for i, o := range sb.batch.NewOwners {
			if dead[o] {
				o = partition.WorkerID(leastLoaded(counts, dead))
				sb.batch.NewOwners[i] = o
			}
			counts[o]++
		}
	}
}

// fail drops every staged and sealed batch; failMutations has answered
// their callers.
func (p *commits) fail() {
	p.sealed = nil
	p.ops, p.muts, p.newV, p.firstAt = nil, nil, 0, time.Time{}
}

// onMutate validates and stages one client batch. During a recovery
// episode the batch stays staged (sealing needs a settled live set) and
// commits once recovery completes — callers see latency, not failure.
func (c *Controller) onMutate(req mutateReq) {
	if c.members.terminal {
		req.ch <- MutationResult{Err: fmt.Errorf("controller: degraded (no live workers)")}
		return
	}
	now := c.cfg.Clock()
	if err := c.commits.stage(req.ops, req.ch, c.curView.Load().NumVertices(), now); err != nil {
		req.ch <- MutationResult{Err: err}
		return
	}
	c.maybeCommit(now)
}

// maybeCommit seals the staged batch once it is due and hands it to the
// WAL group committer; application happens when the shared fsync acks
// through walAckCh. Without a WAL there is nothing to wait for — a
// synthetic completion rides the same channel so the apply path (and its
// fatal-error handling) stays single.
func (c *Controller) maybeCommit(now time.Time) {
	if c.members.terminal || !c.commits.due(now, c.adapt.phase == phaseRecover) {
		return
	}
	b := c.commits.seal(c.vertCount, c.members.dead).batch
	c.publishMVCC()
	if c.cfg.WAL != nil {
		c.cfg.WAL.Enqueue(b.Version, b.Ops, c.walAckCh)
		return
	}
	c.walAckCh <- wal.AppendAck{Version: b.Version}
}

// onWalAck receives one group-commit completion in the event loop: the
// next batch of the sealed FIFO is durable, and every durable batch at its
// head applies.
func (c *Controller) onWalAck(ack wal.AppendAck) error {
	if ack.Err != nil {
		// The WAL could not make the batch durable (or closed under us).
		// Acknowledging an op the disk never saw would break the restart
		// contract, so the engine stops loudly; the sealed callers get
		// explicit errors from the shutdown path.
		return fmt.Errorf("controller: wal append version %d: %w", ack.Version, ack.Err)
	}
	if c.members.terminal {
		// Terminal teardown already failed the sealed callers: the batch is
		// durable but will never be acknowledged (a restart may recover it,
		// which the contract allows — durable-but-unacked may survive).
		return nil
	}
	if err := c.commits.durable(ack.Version); err != nil {
		return err
	}
	return c.applyDurable()
}

// applyDurable applies every durable batch at the head of the sealed
// FIFO, unless a recovery round holds the committed version still:
// applying would move it under the round's PartitionAck equality check.
// resume calls it again once the live set settled.
func (c *Controller) applyDurable() error {
	for {
		sb := c.commits.ready(c.adapt.phase == phaseRecover)
		if sb == nil {
			break
		}
		if err := c.apply(sb); err != nil {
			return err
		}
	}
	// A seal may have been held back by the in-flight cap.
	c.maybeCommit(c.cfg.Clock())
	return nil
}

// apply applies the durable head of the sealed FIFO: advance the committed
// view, broadcast the batch off-barrier, and acknowledge the callers.
// Running queries are untouched — each keeps the view of the version it
// was pinned at.
func (c *Controller) apply(sb *sealedBatch) error {
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
	results := c.commits.applied(statuses, c.deltaLog.Bytes()-preBytes)
	c.publishMVCC()
	c.publishLog(0, time.Time{})
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
	for i, pm := range sb.muts {
		pm.ch <- results[i]
	}
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
	return protocol.SortBlocks(blocks, nil)
}
