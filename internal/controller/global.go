package controller

import (
	"fmt"

	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
)

// This file implements the global barrier (STOP/START, Sec. 3.3) that
// executes Q-cut's move directives on a provably quiet network:
//
//	run → quiesce → stopping → moving → run
//
// quiesce:  stop issuing releases; wait until no query has an outstanding
//	         superstep (workers finish what they compute).
// stopping: GlobalStop names the live workers; each sends a StopMarker to
//	         every other, behind its vertex batches, and answers StopAck
//	         once it holds a marker from each. Per-link FIFO then proves
//	         every vertex batch sent before the stop arrived (the marker rule
//	         of Chandy and Lamport, 1985).
// moving:   MoveScope directives → the source ships ScopeData, even an
//	         empty one, and the target absorbs it and answers MoveAck with
//	         the moved vertex ids; the controller updates its ownership
//	         table and, after the last ack, broadcasts OwnershipUpdate.
// run:      GlobalStart, re-release all active queries, flush deferred
//	         schedules.

// beginGlobalBarrier starts the STOP sequence for a non-empty set of moves.
func (c *Controller) beginGlobalBarrier(moves []qcut.Move) {
	c.pendingMoves = moves
	c.enterPhase(phaseQuiesce)
	c.maybeStop()
}

// maybeStop transitions quiesce → stopping once no query is outstanding.
func (c *Controller) maybeStop() {
	if c.phase != phaseQuiesce {
		return
	}
	for _, ctl := range c.queries {
		if ctl.outstanding {
			return
		}
	}
	c.enterPhase(phaseStopping)
	c.epoch++
	var live []partition.WorkerID
	for w := partition.WorkerID(0); int(w) < c.cfg.K; w++ {
		if !c.deadWorkers[w] {
			live = append(live, w)
		}
	}
	c.acksLeft = len(live)
	c.broadcast(&protocol.GlobalStop{Epoch: c.epoch, Live: live})
}

// onStopAck counts the StopAcks; after the last one the network is quiet and
// the moves execute (phase stopping → moving).
func (c *Controller) onStopAck(m *protocol.StopAck) error {
	if c.phase != phaseStopping || m.Epoch != c.epoch {
		return fmt.Errorf("controller: unexpected StopAck (phase %d epoch %d/%d)", c.phase, m.Epoch, c.epoch)
	}
	if c.acksLeft--; c.acksLeft > 0 {
		return nil
	}
	c.enterPhase(phaseMoving)
	c.ownDeltaV, c.ownDeltaW = nil, nil
	c.acksLeft = len(c.pendingMoves)
	for _, mv := range c.pendingMoves {
		c.conn.Send(protocol.WorkerNode(mv.From), &protocol.MoveScope{
			Epoch: c.epoch, Q: mv.Q, To: mv.To,
		})
	}
	c.pendingMoves = nil
	return nil
}

func (c *Controller) onMoveAck(m *protocol.MoveAck) error {
	if c.phase != phaseMoving || m.Epoch != c.epoch {
		return fmt.Errorf("controller: unexpected MoveAck (phase %d epoch %d/%d)", c.phase, m.Epoch, c.epoch)
	}
	for _, v := range m.Vertices {
		if c.owner[v] == m.From {
			c.vertCount[m.From]--
			c.vertCount[m.To]++
		}
		c.owner[v] = m.To
		c.ownDeltaV = append(c.ownDeltaV, v)
		c.ownDeltaW = append(c.ownDeltaW, m.To)
	}
	// Keep the high-level view consistent with the executed move: the
	// whole local scope of the query relocated. Without this, the next
	// Q-cut snapshot would see a phantom split and issue pointless move
	// directives forever.
	if we := c.byQ[m.Q]; we != nil {
		we.sizes[m.To] += we.sizes[m.From]
		we.sizes[m.From] = 0
	}
	if ctl, ok := c.queries[m.Q]; ok {
		ctl.scopeSizes[m.To] += ctl.scopeSizes[m.From]
		ctl.scopeSizes[m.From] = 0
	}
	if c.acksLeft--; c.acksLeft > 0 {
		return nil
	}
	// Every target acknowledged only after absorbing its ScopeData, so all
	// moved vertices are in place: publish the ownership delta and restart.
	if len(c.ownDeltaV) > 0 {
		c.broadcast(&protocol.OwnershipUpdate{
			Epoch: c.epoch, Vertices: c.ownDeltaV, Owners: c.ownDeltaW,
		})
	}
	return c.resume()
}

// resume ends the global barrier: START, re-release every active query to
// all live workers (scope moves may have relocated pending activations
// anywhere), and flush deferred schedules. After a recovery episode it
// additionally re-executes every active query from superstep 0: the dead
// worker took its share of their vertex state with it, so the whole query
// restarts against the recovered partitioning (the caller just waits
// longer).
func (c *Controller) resume() error {
	c.enterPhase(phaseRun)
	// Every global barrier rewrote ownership — scope moves, or a recovery
	// round's handoff — so each one counts as a repartition.
	c.repartitions++
	c.repartEpoch.Store(int64(c.repartitions))
	c.broadcast(&protocol.GlobalStart{Epoch: c.epoch})
	restart := c.restartQueries
	c.restartQueries = false
	if restart {
		for _, ctl := range c.queries {
			if ctl.cancelled {
				continue // finished below instead of re-executed
			}
			c.resetQueryForRestart(ctl)
			c.broadcast(&protocol.ExecuteQuery{Spec: ctl.spec})
		}
	}
	if c.recovering {
		c.recovering = false
		c.publishHealth()
	}
	all := make(map[partition.WorkerID]bool, c.cfg.K)
	for w := 0; w < c.cfg.K; w++ {
		if !c.deadWorkers[partition.WorkerID(w)] {
			all[partition.WorkerID(w)] = true
		}
	}
	for _, ctl := range c.queries {
		if ctl.outstanding {
			// Cannot happen: quiesce guaranteed collection before STOP.
			continue
		}
		if ctl.cancelled {
			// Abandoned while the barrier was forming; finish instead of
			// re-releasing (deleting during range is safe in Go).
			c.finishQuery(ctl, protocol.FinishCancelled)
			continue
		}
		involved := make(map[partition.WorkerID]bool, len(all))
		for w := range all {
			involved[w] = true
		}
		c.release(ctl, ctl.step+1, involved, nil, true)
	}
	deferred := c.deferred
	c.deferred = nil
	for _, req := range deferred {
		c.startQuery(req)
	}
	// Commits that became durable while a recovery round held the version
	// still apply now: every restarted or deferred query above pinned (and
	// was broadcast at) the pre-drain version, so per-link FIFO keeps their
	// pins resolvable under these batches' version bumps.
	return c.drainDurable()
}
