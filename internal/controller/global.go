package controller

import (
	"fmt"
	"maps"
	"slices"

	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
)

// This file is adapt's global barrier (STOP/START, Sec. 3.3), which
// executes Q-cut's move directives on a provably quiet network:
//
//	run → quiesce → stopping → moving → run
//
// Quiesce holds every release until no superstep is outstanding. Stopping
// waits for a StopAck from each live worker GlobalStop names: per-link FIFO
// and the StopMarkers then prove every vertex batch sent before the stop
// arrived (the marker rule of Chandy and Lamport, 1985; protocol.StopAck).
// Moving sends each MoveScope to its source once the last StopAck is in,
// and after the targets' last MoveAck every moved vertex is in place. Run:
// GlobalStart, carrying the moves' ownership delta, every active query
// re-released, deferred schedules flushed. A recovery round (recover.go)
// aborts the barrier in any phase.

// quiesced enters stopping, the next epoch, with a StopAck due from each
// of the live workers, once no round is outstanding; it says whether it did.
func (a *adapt) quiesced(outstanding bool, live int) bool {
	if a.phase != phaseQuiesce || outstanding {
		return false
	}
	a.phase = phaseStopping
	a.epoch++
	a.acksLeft = live
	return true
}

// stopAck counts a StopAck of epoch. After the last the network is quiet:
// it enters moving, with a MoveAck due per move, and returns the moves.
func (a *adapt) stopAck(epoch int32) ([]qcut.Move, error) {
	if a.phase != phaseStopping || epoch != a.epoch {
		return nil, fmt.Errorf("controller: unexpected StopAck (phase %d epoch %d/%d)", a.phase, epoch, a.epoch)
	}
	if a.acksLeft--; a.acksLeft > 0 {
		return nil, nil
	}
	moves := a.plan.moves
	a.plan.moves = nil
	a.phase = phaseMoving
	a.acksLeft = len(moves)
	a.ownDeltaV, a.ownDeltaW = nil, nil
	return moves, nil
}

// moveAck counts a MoveAck, records its ownership changes, and says
// whether it was the last.
func (a *adapt) moveAck(m *protocol.MoveAck) (last bool, err error) {
	if a.phase != phaseMoving || m.Epoch != a.epoch {
		return false, fmt.Errorf("controller: unexpected MoveAck (phase %d epoch %d/%d)", a.phase, m.Epoch, a.epoch)
	}
	for _, v := range m.Vertices {
		a.ownDeltaV = append(a.ownDeltaV, v)
		a.ownDeltaW = append(a.ownDeltaW, m.To)
	}
	a.acksLeft--
	return a.acksLeft == 0, nil
}

// recover aborts the barrier in flight, whose plan never executed, and
// opens a recovery round (again, if one is open). A plan Q-cut still
// computes lives on; planned drops it unless the round is over by then.
// The round's grants replace ownership wholesale, so the GlobalStart that
// ends it carries no delta: the partial one of moves it aborted would
// corrupt theirs. It returns the phase it left.
func (a *adapt) recover() (left phase) {
	left = a.phase
	if left != phaseRun && left != phaseRecover {
		a.plan = nil
	}
	a.phase = phaseRecover
	a.acksLeft = 0
	a.ownDeltaV, a.ownDeltaW = nil, nil
	return left
}

// resume ends the barrier or the recovery round and returns the phase it
// left. A plan whose barrier ends here executed: its locality is the next
// trigger's to compare with.
func (a *adapt) resume() (left phase) {
	left = a.phase
	if left == phaseMoving {
		a.raised = a.plan.loc
		a.plan = nil
	}
	a.phase = phaseRun
	return left
}

// maybeStop sends GlobalStop once quiesce finds no round outstanding.
func (c *Controller) maybeStop() {
	outstanding := false
	for _, ctl := range c.queries {
		outstanding = outstanding || ctl.outstanding
	}
	live := slices.Sorted(maps.Keys(liveSet(c.cfg.K, c.members.dead)))
	if c.adapt.quiesced(outstanding, len(live)) {
		c.leftPhase(phaseQuiesce)
		c.broadcast(&protocol.GlobalStop{Epoch: c.adapt.epoch, Live: live})
	}
}

// onStopAck sends the moves once the last StopAck is in.
func (c *Controller) onStopAck(m *protocol.StopAck) error {
	moves, err := c.adapt.stopAck(m.Epoch)
	if moves == nil {
		return err
	}
	c.leftPhase(phaseStopping)
	for _, mv := range moves {
		c.conn.Send(protocol.WorkerNode(mv.From), &protocol.MoveScope{Epoch: c.adapt.epoch, Q: mv.Q, To: mv.To})
	}
	return nil
}

// onMoveAck applies a move to the ownership table and the high-level view
// (the query's whole local scope relocated). After the last, every target
// absorbed its ScopeData, and the barrier ends.
func (c *Controller) onMoveAck(m *protocol.MoveAck) error {
	last, err := c.adapt.moveAck(m)
	if err != nil {
		return err
	}
	for _, v := range m.Vertices {
		if c.owner[v] == m.From {
			c.vertCount[m.From]--
			c.vertCount[m.To]++
		}
		c.owner[v] = m.To
	}
	if we := c.byQ[m.Q]; we != nil {
		we.sizes[m.To] += we.sizes[m.From]
		we.sizes[m.From] = 0
	}
	if ctl, ok := c.queries[m.Q]; ok {
		ctl.move(m.From, m.To)
	}
	if !last {
		return nil
	}
	return c.resume(false)
}

// resume ends the global barrier: START with the moves' ownership delta,
// re-release every active query to all live workers (scope moves may have
// relocated pending activations anywhere), and flush deferred schedules.
// After a recovery round (restart) it first re-executes every active query
// from superstep 0: the dead worker took its share of their vertex state
// with it, so the whole query restarts against the recovered partitioning
// (the caller just waits longer). A query cancelled during the barrier
// finishes instead, whatever its round was doing when the barrier began.
func (c *Controller) resume(restart bool) error {
	c.leftPhase(c.adapt.resume())
	// Every global barrier rewrote ownership — scope moves, or a recovery
	// round's handoff — so each one counts as a repartition.
	c.repartEpoch.Add(1)
	c.broadcast(&protocol.GlobalStart{Epoch: c.adapt.epoch, Vertices: c.adapt.ownDeltaV, Owners: c.adapt.ownDeltaW})
	restarted := 0
	// In id order: the sends to each worker must not follow map order.
	for _, q := range slices.Sorted(maps.Keys(c.queries)) {
		ctl := c.queries[q]
		if ctl.cancelled {
			c.finishQuery(ctl, protocol.FinishCancelled)
			continue
		}
		if restart {
			// The restart re-pins to the recovered version: every worker is
			// exactly at the committed version when the re-broadcast
			// ExecuteQuery arrives (its PartitionGrant carried it);
			// the old pin may predate the recovery.
			c.abortStepSpan(ctl, "recovery-restart")
			ctl.restart()
			c.unpin(ctl)
			c.pin(ctl)
			c.broadcast(&protocol.ExecuteQuery{Spec: ctl.spec})
			restarted++
		}
		c.release(ctl, nil, nil, true)
	}
	if restart {
		c.recovered(restarted)
	}
	deferred := c.deferred
	c.deferred = nil
	for _, req := range deferred {
		c.onSchedule(req)
	}
	// Commits that became durable while a recovery round held the version
	// still apply now: every restarted or deferred query above pinned (and
	// was broadcast at) the version before them, so per-link FIFO keeps
	// their pins resolvable under these batches' version bumps.
	return c.applyDurable()
}
