package controller

import (
	"fmt"
	"time"

	"qgraph/internal/obs/health"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	recovery "qgraph/internal/recover"
)

// This file is the controller side of worker failure recovery: the state
// machine that turns "a worker stopped answering heartbeats" into "every
// in-flight query completes anyway". It is woven into the global barrier
// machinery — recovery behaves like a forced STOP/START barrier whose
// membership shrinks (handoff) or is restored by a respawned worker
// (rejoin):
//
//	death → [await respawn hello] → plan ownership → RecoverStart /
//	PartitionGrant → collect PartitionAcks → restart queries from
//	superstep 0 → GlobalStart → apply commits that became durable meanwhile
//
// Recovery invariants:
//
//   - The dead worker is fenced immediately: every message from it is
//     dropped, so a falsely-declared-dead worker cannot corrupt the
//     reassigned partition.
//   - The worker data plane is generation-tagged, so in-flight traffic
//     from before the failure cannot deliver (the "barrier drain" without
//     the dead worker's cooperation), and every worker drops a StopAck it
//     still waited to send.
//   - The committed version holds still for the whole round: a batch is
//     applied and broadcast only after its fsync, so per-link FIFO brings
//     every live replica to exactly the committed version before RecoverStart
//     reaches it, and batches that become durable mid-round queue in
//     durableQ until resume — nothing is ever rolled back.
//   - The repartition epoch bumps exactly once per episode (in resume).

// recoverState is the sub-state within phaseRecover.
type recoverState int

const (
	// recWaitHello defers the handoff while a respawn may still adopt the
	// dead worker's partition in place.
	recWaitHello recoverState = iota
	// recWaitAcks means the ownership map is out and the round completes
	// when every live worker acknowledged the generation.
	recWaitAcks
)

// respawnWait is how long recovery defers the partition handoff to give a
// respawned worker the chance to adopt its old partition in place. A hello
// arriving after the deadline still rejoins, just with an empty partition.
const respawnWait = 500 * time.Millisecond

// onWorkerDead starts (or extends) a recovery episode. Called by the
// heartbeat monitor exactly once per declared death.
func (c *Controller) onWorkerDead(w partition.WorkerID) {
	if c.deadWorkers[w] || c.terminal {
		return
	}
	c.deadWorkers[w] = true
	if p := c.pull; p != nil {
		delete(p.waiting, w)
		c.maybePulled()
	}
	if o := c.cfg.Obs; o != nil {
		o.Log().Warn("worker declared dead", "worker", int(w),
			"graph_version", c.GraphVersion())
	}
	c.cfg.Monitor.MarkWorkerDead(int(w))
	c.healthEvent(health.EventWorkerDead, health.SevWarn, int(w),
		fmt.Sprintf("worker %d declared dead (missed heartbeats)", int(w)),
		map[string]any{"graph_version": c.GraphVersion()})
	if c.cfg.Respawn == nil {
		// Fence a falsely-declared-dead worker that is actually alive: its
		// partition is being reassigned under it. With in-process respawn
		// the transport endpoint is reused by the replacement, so the
		// fence would kill the replacement instead — there the inbound
		// message fence (handle) is the only one needed.
		c.conn.Send(protocol.WorkerNode(w), &protocol.Shutdown{})
	}
	if c.liveCount() == 0 {
		c.enterTerminal()
		return
	}
	c.startRecoveryRound([]partition.WorkerID{w}, nil)
}

// startRecoveryRound aborts whatever barrier was in flight and opens a
// recovery round for the current dead set, optionally admitting rejoining
// workers whose hello already arrived.
func (c *Controller) startRecoveryRound(newlyDead, rejoining []partition.WorkerID) {
	c.abortBarrierForRecovery()
	c.enterPhase(phaseRecover)
	c.recState = recWaitHello
	c.recovering = true
	now := c.cfg.Clock()
	c.rec.BeginRound(now)
	for _, w := range newlyDead {
		c.epDied[w] = true
		if c.cfg.Respawn != nil {
			c.rec.AwaitHello(w, now.Add(respawnWait))
			c.cfg.Respawn(w)
		}
	}
	for _, w := range rejoining {
		c.epDied[w] = true
		c.rec.MarkRejoining(w)
	}
	c.publishHealth()
	if !c.rec.Waiting(now) {
		c.proceedRecovery()
	}
}

// abortBarrierForRecovery clears the in-flight barrier bookkeeping; its
// moves are abandoned. Staged mutations stay staged and sealed batches
// stay in their FIFO.
func (c *Controller) abortBarrierForRecovery() {
	c.acksLeft = 0
	c.pendingMoves = nil
	c.ownDeltaV, c.ownDeltaW = nil, nil
}

// onWorkerHello admits a (re)spawned worker. Inside a round's hello window
// it joins that round; any later it opens a fresh round of its own (the
// partition was already handed off — it rejoins empty and inherits load
// through future commits and repartitioning).
func (c *Controller) onWorkerHello(m *protocol.WorkerHello) {
	w := m.W
	if c.terminal || int(w) >= c.cfg.K || !c.deadWorkers[w] {
		return
	}
	if c.phase == phaseRecover && c.recState == recWaitHello {
		if !c.rec.OnHello(w) {
			c.rec.MarkRejoining(w)
		}
		if !c.rec.Waiting(c.cfg.Clock()) {
			c.proceedRecovery()
		}
		return
	}
	c.startRecoveryRound(nil, []partition.WorkerID{w})
}

// proceedRecovery plans the new ownership and broadcasts it: handoff for
// dead workers without a replacement, a replayed grant for rejoiners.
func (c *Controller) proceedRecovery() {
	c.recState = recWaitAcks
	gen := c.rec.Gen()
	lost := func(w partition.WorkerID) bool {
		return c.deadWorkers[w] && !c.rec.Rejoining(w)
	}
	recovery.PlanHandoff(c.owner, c.vertCount, lost)
	for _, sb := range c.sealed {
		// A batch sealed but not yet applied may have assigned its new
		// vertices to a worker that is now lost: its ops are already (or
		// about to be) durable in the WAL, but the placement must land on
		// workers that still exist.
		recovery.RemapOwners(sb.batch.NewOwners, c.vertCount, lost)
	}
	// One immutable snapshot of the authoritative map, shared by every
	// message of this round (receivers copy; the controller keeps
	// mutating c.owner afterwards).
	ownerSnap := append([]partition.WorkerID(nil), c.owner...)
	version := c.GraphVersion()
	// The grant replays the retained tail over the log's own base, which by
	// construction cannot gap. If it somehow does, ship an empty tail: the
	// rejoiner then fails its version check loudly instead of silently
	// diverging on a disconnected replay.
	tail, tailErr := c.deltaLog.Since(c.deltaLog.Base())
	if tailErr != nil {
		tail = nil
	}

	var ackers []partition.WorkerID
	for w := partition.WorkerID(0); int(w) < c.cfg.K; w++ {
		if c.rec.Rejoining(w) {
			delete(c.deadWorkers, w)
			c.missedPings[w] = 0
			c.cfg.Monitor.MarkWorkerLive(int(w))
			// Replay starts at the newest checkpoint, not version 0: the log
			// was truncated there, and the rejoiner resolves the checkpoint
			// from its snapshot store — O(ops since checkpoint) crosses the
			// wire, however long the deployment has been mutating.
			c.conn.Send(protocol.WorkerNode(w), &protocol.PartitionGrant{
				Gen: gen, Version: version, Owner: ownerSnap,
				BaseVersion: c.deltaLog.Base(),
				Batches:     tail,
			})
			ackers = append(ackers, w)
			continue
		}
		if c.deadWorkers[w] {
			continue
		}
		c.conn.Send(protocol.WorkerNode(w), &protocol.RecoverStart{
			Gen: gen, Version: version, Owner: ownerSnap,
		})
		ackers = append(ackers, w)
	}
	c.rec.ExpectAcks(ackers)
	c.publishHealth()
}

// onPartitionAck collects recovery acknowledgements; the round completes
// once every live worker settled in the current generation.
func (c *Controller) onPartitionAck(m *protocol.PartitionAck) error {
	fresh, done := c.rec.OnAck(m.W, m.Gen)
	if !fresh {
		return nil // stale round or unexpected sender
	}
	if m.Version != c.GraphVersion() {
		return fmt.Errorf("controller: worker %d recovered at graph version %d, want %d (replica divergence)",
			m.W, m.Version, c.GraphVersion())
	}
	// The ack proves w's replica is at the committed version, and the live
	// set just changed: without this a dead (or rejoined) slowest worker
	// would pin MaxWorkerLag until the next write.
	c.recordAck(m.W, m.Version)
	if done {
		return c.completeRecovery()
	}
	return nil
}

// completeRecovery closes the episode: account it, then ride the tail of
// the normal global barrier — resume() restarts every active query from
// superstep 0 and bumps the repartition epoch exactly once.
func (c *Controller) completeRecovery() error {
	now := c.cfg.Clock()
	dur := c.rec.Finish(now)
	handoffs, rejoins := 0, 0
	for w := range c.epDied {
		if c.deadWorkers[w] {
			handoffs++
		} else {
			rejoins++
		}
	}
	c.recCtr.Episode(dur, handoffs, rejoins, len(c.queries))
	c.healthEvent(health.EventRecovery, health.SevInfo, -1,
		fmt.Sprintf("recovery complete in %s (%d handoffs, %d rejoins, %d queries restarted)",
			dur.Round(time.Millisecond), handoffs, rejoins, len(c.queries)),
		map[string]any{
			"duration_ms": float64(dur) / float64(time.Millisecond),
			"handoffs":    handoffs, "rejoins": rejoins,
			"queries_restarted": len(c.queries),
		})
	if o := c.cfg.Obs; o != nil {
		o.Log().Info("recovery complete",
			"duration_ms", float64(dur)/float64(time.Millisecond),
			"handoffs", handoffs, "rejoins", rejoins,
			"queries_restarted", len(c.queries),
			"graph_version", c.GraphVersion())
	}
	c.epDied = make(map[partition.WorkerID]bool)

	c.restartQueries = true
	return c.resume()
}

// resetQueryForRestart rewinds a query's controller-side state to
// superstep 0. Cumulative statistics (supersteps executed, local
// iterations, latency since schedule) keep accumulating across the
// restart — the caller pays real time and the engine did real work.
func (c *Controller) resetQueryForRestart(ctl *qctl) {
	c.abortStepSpan(ctl, "recovery-restart")
	ctl.step = -1
	ctl.outstanding = false
	ctl.involved = make(map[partition.WorkerID]bool)
	ctl.reports = make(map[partition.WorkerID]*protocol.BarrierSynch)
	// Scope statistics restart with the execution: Touched (scopeSizes),
	// Workers (everActive) and Blocks describe the run that produced the
	// result, not the one the failure discarded.
	for i := range ctl.scopeSizes {
		ctl.scopeSizes[i] = 0
		ctl.everActive[i] = false
	}
	ctl.blocks = ctl.blocks[:0]
	// A goal found before the failure proved a path at the old pin; the
	// restart re-pins to the recovered version. Rediscover.
	ctl.bestGoal = query.NoResult
	// Move the pin to the recovered version: every worker is exactly at the
	// committed version when the re-broadcast ExecuteQuery arrives
	// (RecoverStart/PartitionGrant carried it); the old pin may predate the
	// recovery.
	c.unpin(ctl)
	c.pin(ctl)
}

// enterTerminal is the unrecoverable end state: every worker is dead.
// Everything in flight fails with FinishWorkerLost and health reports
// degraded permanently, from before the first failure is delivered: a
// caller that reads Health on its worker_lost result sees why.
func (c *Controller) enterTerminal() {
	c.terminal = true
	c.recovering = false
	c.publishHealth()
	c.healthEvent(health.EventTerminal, health.SevCritical, -1,
		"no live workers left: controller is terminally degraded", nil)
	if c.rec.Active() {
		c.rec.Finish(c.cfg.Clock())
	}
	c.enterPhase(phaseRun)
	now := c.cfg.Clock()
	for q, ctl := range c.queries {
		c.abortStepSpan(ctl, "terminal")
		c.endQueryTrace(ctl, protocol.FinishWorkerLost, Result{
			Supersteps: ctl.stepsDone, LocalIters: ctl.localSteps,
		})
		ctl.ch <- Result{
			Q: q, Value: ctl.bestGoal, Reason: protocol.FinishWorkerLost,
			Supersteps: ctl.stepsDone, LocalIters: ctl.localSteps,
			Latency: now.Sub(ctl.started),
		}
		c.forget(ctl)
	}
	for _, req := range c.deferred {
		req.ch <- Result{Q: req.spec.ID, Value: query.NoResult, Reason: protocol.FinishWorkerLost}
	}
	c.deferred = nil
	c.failMutations(
		fmt.Errorf("controller: degraded (no live workers)"),
		fmt.Errorf("controller: degraded (no live workers) during commit; batch state unknown"),
	)
}
