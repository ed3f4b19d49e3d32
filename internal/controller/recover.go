package controller

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"qgraph/internal/obs/health"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
)

// This file is worker membership and failure recovery: the state machine
// that turns "a worker stopped answering heartbeats" into "every in-flight
// query completes anyway". The controller pings every worker on a fixed
// cadence; workers drain their inbox between supersteps, so only a dead or
// wedged worker misses consecutive pings. A worker past the miss limit is
// declared dead and a recovery episode begins. Recovery behaves like a
// forced STOP/START barrier whose membership shrinks (handoff) or is
// restored by a respawned worker (rejoin):
//
//	death → [hello window] → plan ownership → PartitionGrant →
//	collect PartitionAcks → restart queries from superstep 0 →
//	GlobalStart → apply commits that became durable meanwhile
//
// members holds every fact of it: the dead set, the probe accounting, the
// episode and the totals. Its transitions read nothing but it and their
// arguments — no connection, channel, goroutine, clock or instrument — and
// only they assign its fields. The controller half below does the I/O.
//
// Invariants:
//
//   - The dead worker is fenced at once: every message from it is dropped
//     (handle) until a PartitionGrant readmits it, so a falsely-declared-dead
//     worker cannot corrupt the reassigned partition.
//   - Each death, and each hello that arrives outside a hello window, opens
//     a new round with the next generation inside the one episode; an ack
//     of an older generation is stale. A recovery round is open exactly
//     while the phase is phaseRecover: from the transition that opens one
//     to the last ack (finish) or the loss of every worker (terminate).
//   - The worker data plane is generation-tagged, so in-flight traffic from
//     before the failure cannot deliver (the "barrier drain" without the
//     dead worker's cooperation), and every worker drops a StopAck it still
//     waited to send.
//   - The committed version holds still for the whole round: a batch is
//     applied and broadcast only after its fsync, so per-link FIFO brings
//     every live replica to exactly the committed version before its
//     PartitionGrant reaches it, and a batch that becomes durable mid-round
//     is marked so in the sealed FIFO and applied at resume — nothing is
//     ever rolled back.
//   - The repartition epoch bumps exactly once per episode (in resume), and
//     the episode counts the queries resume restarted, not those it
//     finished as cancelled.
//   - Only the loss of every worker is terminal.

// respawnWait is how long recovery defers the partition handoff to give a
// respawned worker the chance to adopt its old partition in place. A hello
// arriving after the deadline still rejoins, just with an empty partition.
const respawnWait = 500 * time.Millisecond

// members is worker liveness and the recovery episode.
type members struct {
	k       int
	every   time.Duration // probe cadence; negative disables probing
	limit   int           // missed probes that make a worker dead, at least 2
	respawn bool          // Config.Respawn is set: a death opens a hello window

	dead     map[partition.WorkerID]bool
	terminal bool      // no live worker is left; nothing can recover
	pingAt   time.Time // when the current probe round was sent
	pingSeq  int64
	missed   []int // probes each worker left unanswered since its last pong

	// The episode runs from the first death to the round whose every ack
	// arrived; since is zero outside one. The hello window is open from a
	// round's opening to its plan (due is nil until then).
	gen      int32
	since    time.Time
	helloBy  time.Time
	awaiting map[partition.WorkerID]bool // respawned, hello not yet in
	rejoin   map[partition.WorkerID]bool // hello in, grant not yet sent
	due      map[partition.WorkerID]bool // acks still due
	churn    map[partition.WorkerID]bool // died or said hello this episode

	stats RecoveryStats
}

// RecoveryStats is the recovery totals surfaced through /stats.
type RecoveryStats struct {
	// Recoveries counts completed recovery episodes.
	Recoveries int64 `json:"recoveries"`
	// Handoffs counts workers whose partition was handed to survivors;
	// Rejoins counts respawned workers granted back into the live set.
	Handoffs int64 `json:"handoffs"`
	Rejoins  int64 `json:"rejoins"`
	// QueriesRestarted counts in-flight queries re-run from superstep 0.
	QueriesRestarted int64 `json:"queries_restarted"`
	// LastRecoveryMS is the wall time of the latest completed episode.
	LastRecoveryMS float64 `json:"last_recovery_ms,omitempty"`
}

func newMembers(cfg *Config) members {
	return members{
		k: cfg.K, every: cfg.HeartbeatEvery, respawn: cfg.Respawn != nil,
		// The timeout in probe rounds, at least 2 so one scheduling hiccup
		// never kills.
		limit:    max(2, int(cfg.HeartbeatTimeout/cfg.HeartbeatEvery)),
		dead:     make(map[partition.WorkerID]bool),
		missed:   make([]int, cfg.K),
		awaiting: make(map[partition.WorkerID]bool),
		rejoin:   make(map[partition.WorkerID]bool),
		churn:    make(map[partition.WorkerID]bool),
	}
}

// probe opens the next probe round at now once the cadence allows. It
// returns the live workers to ping, and those that left the last limit
// rounds unanswered, which the caller declares dead.
func (m *members) probe(now time.Time) (ping, lost []partition.WorkerID) {
	if m.every < 0 || m.terminal {
		return nil, nil
	}
	if m.pingAt.IsZero() {
		m.pingAt = now
		return nil, nil
	}
	if now.Sub(m.pingAt) < m.every {
		return nil, nil
	}
	m.pingAt = now
	m.pingSeq++
	for w := range m.missed {
		switch wid := partition.WorkerID(w); {
		case m.dead[wid]:
		case m.missed[w] >= m.limit:
			lost = append(lost, wid)
		default:
			m.missed[w]++
			ping = append(ping, wid)
		}
	}
	return ping, lost
}

// pong records w's answer to probe round seq and says whether it answers
// the current round, whose send time then bounds the round trip.
func (m *members) pong(w partition.WorkerID, seq int64) bool {
	if int(w) >= m.k || m.dead[w] {
		return false
	}
	m.missed[w] = 0
	return seq == m.pingSeq
}

// die declares w dead at now and says whether w was live. The last live
// worker's death is terminal; any other opens a round, whose hello window
// waits for w's replacement when one is launched.
func (m *members) die(w partition.WorkerID, now time.Time) bool {
	if m.dead[w] || m.terminal {
		return false
	}
	m.dead[w] = true
	if len(m.dead) == m.k {
		m.terminate()
		return true
	}
	m.churn[w] = true
	m.open(now)
	if m.respawn {
		m.awaiting[w] = true
		if by := now.Add(respawnWait); by.After(m.helloBy) {
			m.helloBy = by
		}
	}
	return true
}

// hello admits dead worker w's replacement at now. Inside a hello window w
// joins that round; any later it opens one of its own (its partition was
// already handed off: it rejoins empty and inherits load through commits
// and repartitioning). A hello from a worker that is not dead is ignored.
func (m *members) hello(w partition.WorkerID, now time.Time) (admitted, opened bool) {
	if m.terminal || int(w) >= m.k || !m.dead[w] {
		return false, false
	}
	m.rejoin[w] = true
	m.churn[w] = true
	delete(m.awaiting, w)
	if m.window() {
		return true, false
	}
	m.open(now)
	return true, true
}

// open opens a round at now: the next generation, its hello window, and
// the episode if none is open.
func (m *members) open(now time.Time) {
	m.gen++
	if m.since.IsZero() {
		m.since = now
	}
	m.due = nil
}

// window says whether a round's hello window is open.
func (m *members) window() bool { return !m.since.IsZero() && m.due == nil }

// expired says whether the hello window closed by now: every awaited
// replacement said hello, or the time ran out. The round then plans.
func (m *members) expired(now time.Time) bool {
	return m.window() && (len(m.awaiting) == 0 || !now.Before(m.helloBy))
}

// plan closes the hello window. It readmits every worker whose hello
// arrived, hands each vertex of the workers still dead to the least-loaded
// live worker, in vertex order (owner and counts change in place), and
// says which workers rejoin (their grant replays the op tail) and which
// survived. All of them get a PartitionGrant and owe an ack.
func (m *members) plan(owner partition.Assignment, counts []int64) (rejoined, survivors []partition.WorkerID) {
	for w := range m.rejoin {
		delete(m.dead, w)
		m.missed[w] = 0
	}
	for v, from := range owner {
		if m.dead[from] {
			to := partition.WorkerID(leastLoaded(counts, m.dead))
			owner[v] = to
			counts[from]--
			counts[to]++
		}
	}
	m.due = make(map[partition.WorkerID]bool, m.k)
	for w := partition.WorkerID(0); int(w) < m.k; w++ {
		switch {
		case m.rejoin[w]:
			rejoined = append(rejoined, w)
		case !m.dead[w]:
			survivors = append(survivors, w)
		default:
			continue
		}
		m.due[w] = true
	}
	clear(m.rejoin)
	clear(m.awaiting)
	return rejoined, survivors
}

// ack records w's acknowledgement of generation gen. fresh is false for a
// stale or unexpected ack; done is true once every ack due arrived.
func (m *members) ack(w partition.WorkerID, gen int32) (fresh, done bool) {
	if gen != m.gen || !m.due[w] {
		return false, false
	}
	delete(m.due, w)
	return true, len(m.due) == 0
}

// finish closes the episode at now, once resume restarted its queries, and
// adds it to the totals. A worker it saw that is still dead was handed
// off; any other rejoined.
func (m *members) finish(now time.Time, restarted int) (d time.Duration, handoffs, rejoins int) {
	d = now.Sub(m.since)
	for w := range m.churn {
		if m.dead[w] {
			handoffs++
		} else {
			rejoins++
		}
	}
	m.stats.Recoveries++
	m.stats.Handoffs += int64(handoffs)
	m.stats.Rejoins += int64(rejoins)
	m.stats.QueriesRestarted += int64(restarted)
	m.stats.LastRecoveryMS = float64(d) / float64(time.Millisecond)
	m.end()
	return d, handoffs, rejoins
}

// terminate is the end state once no worker is live: the episode closes
// uncounted.
func (m *members) terminate() {
	m.terminal = true
	m.end()
}

// end closes the episode.
func (m *members) end() {
	m.since, m.helloBy, m.due = time.Time{}, time.Time{}, nil
	clear(m.awaiting)
	clear(m.rejoin)
	clear(m.churn)
}

// leastLoaded is the worker not in dead with the fewest vertices in
// counts, the lowest id on a tie; -1 when every worker is dead. It places
// a handed-off vertex, a new one, and a sealed one whose owner died.
func leastLoaded(counts []int64, dead map[partition.WorkerID]bool) int {
	best := -1
	for w := range counts {
		if !dead[partition.WorkerID(w)] && (best < 0 || counts[w] < counts[best]) {
			best = w
		}
	}
	return best
}

// heartbeat runs on the controller tick: ping the workers the probe round
// names and declare dead those past the miss limit.
func (c *Controller) heartbeat(now time.Time) {
	ping, lost := c.members.probe(now)
	for _, w := range ping {
		c.conn.Send(protocol.WorkerNode(w), &protocol.Ping{Seq: c.members.pingSeq})
	}
	for _, w := range lost {
		c.onWorkerDead(w)
	}
}

// onPong records a worker's liveness answer. An answer to the current
// probe round also yields the worker's heartbeat round-trip time: the
// Ping→Pong path through the worker's inbox, the early-warning signal (a
// worker drowning in queued messages shows a growing RTT well before it
// misses enough pings to be declared dead).
func (c *Controller) onPong(m *protocol.Pong) {
	if c.members.pong(m.W, m.Seq) {
		c.obs.observeRTT(int(m.W), c.cfg.Clock().Sub(c.members.pingAt))
	}
}

// onWorkerDead declares w dead and opens a recovery round, or ends the
// engine when w was the last live worker.
func (c *Controller) onWorkerDead(w partition.WorkerID) {
	now := c.cfg.Clock()
	if !c.members.die(w, now) {
		return
	}
	// w answers the pull in flight, if any, with nothing: it leaves the pull.
	c.pulled(c.adapt.report(&protocol.StatsReport{Seq: c.adapt.pullSeq, W: w}))
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
	if c.members.terminal {
		c.enterTerminal()
		return
	}
	c.openRound()
	if c.cfg.Respawn != nil {
		c.cfg.Respawn(w)
	}
	if c.members.expired(now) {
		c.planRound()
	}
}

// onWorkerHello admits a (re)spawned worker into the hello window, or into
// a round of its own.
func (c *Controller) onWorkerHello(m *protocol.WorkerHello) {
	now := c.cfg.Clock()
	admitted, opened := c.members.hello(m.W, now)
	if opened {
		c.openRound()
	}
	if admitted && c.members.expired(now) {
		c.planRound()
	}
}

// openRound aborts whatever barrier was in flight — its moves are
// abandoned; staged mutations stay staged and sealed batches stay in their
// FIFO — and enters the recovery phase.
func (c *Controller) openRound() {
	c.leftPhase(c.adapt.recover())
	c.publishHealth()
}

// planRound sends the round's plan: the full ownership map to every live
// worker, with the retained op tail for each rejoiner.
func (c *Controller) planRound() {
	rejoined, survivors := c.members.plan(c.owner, c.vertCount)
	c.commits.remap(c.vertCount, c.members.dead)
	// One immutable snapshot of the authoritative map, shared by every
	// message of this round (receivers copy; the controller keeps mutating
	// c.owner afterwards).
	owner := slices.Clone(c.owner)
	gen, version := c.members.gen, c.GraphVersion()
	// The grant replays the retained tail over the log's own base, which by
	// construction cannot gap. If it somehow does, ship an empty tail: the
	// rejoiner then fails its version check loudly instead of silently
	// diverging on a disconnected replay.
	tail, err := c.deltaLog.Since(c.deltaLog.Base())
	if err != nil {
		tail = nil
	}
	// Rejoiners first; survivors keep their graph view and get no replay.
	for i, w := range slices.Concat(rejoined, survivors) {
		g := &protocol.PartitionGrant{Gen: gen, Version: version, Owner: owner}
		if i < len(rejoined) {
			c.cfg.Monitor.MarkWorkerLive(int(w))
			// Replay starts at the newest checkpoint, where the log was
			// truncated, and the rejoiner resolves it from its snapshot store:
			// O(ops since checkpoint) crosses the wire, however long the
			// deployment has been mutating.
			g.Rejoin, g.BaseVersion, g.Batches = true, c.deltaLog.Base(), tail
		}
		c.conn.Send(protocol.WorkerNode(w), g)
	}
	c.publishHealth()
}

// onPartitionAck collects recovery acknowledgements; after the last one
// the episode rides the tail of the global barrier: resume restarts every
// active query from superstep 0.
func (c *Controller) onPartitionAck(m *protocol.PartitionAck) error {
	fresh, done := c.members.ack(m.W, m.Gen)
	if !fresh {
		return nil // stale round or unexpected sender
	}
	if m.Version != c.GraphVersion() {
		return fmt.Errorf("controller: worker %d recovered at graph version %d, want %d (replica divergence)",
			m.W, m.Version, c.GraphVersion())
	}
	if done {
		return c.resume(true)
	}
	return nil
}

// recovered closes the episode once resume restarted its queries, and
// publishes it.
func (c *Controller) recovered(restarted int) {
	d, handoffs, rejoins := c.members.finish(c.cfg.Clock(), restarted)
	st := c.members.stats
	c.recovery.Store(&st)
	c.publishHealth()
	ms := float64(d) / float64(time.Millisecond)
	c.healthEvent(health.EventRecovery, health.SevInfo, -1,
		fmt.Sprintf("recovery complete in %s (%d handoffs, %d rejoins, %d queries restarted)",
			d.Round(time.Millisecond), handoffs, rejoins, restarted),
		map[string]any{
			"duration_ms": ms, "handoffs": handoffs, "rejoins": rejoins,
			"queries_restarted": restarted,
		})
	if o := c.cfg.Obs; o != nil {
		o.Log().Info("recovery complete", "duration_ms", ms,
			"handoffs", handoffs, "rejoins", rejoins,
			"queries_restarted", restarted, "graph_version", c.GraphVersion())
	}
}

// enterTerminal is the unrecoverable end state: every worker is dead.
// Everything in flight fails with FinishWorkerLost and health reports
// degraded permanently, from before the first failure is delivered: a
// caller that reads Health on its worker_lost result sees why.
func (c *Controller) enterTerminal() {
	left := c.adapt.recover()
	c.adapt.resume()
	c.leftPhase(left)
	c.publishHealth()
	c.healthEvent(health.EventTerminal, health.SevCritical, -1,
		"no live workers left: controller is terminally degraded", nil)
	c.failQueries(protocol.FinishWorkerLost)
	c.failMutations(
		fmt.Errorf("controller: degraded (no live workers)"),
		fmt.Errorf("controller: degraded (no live workers) during commit; batch state unknown"),
	)
}

// Health is the controller's liveness self-assessment, surfaced through
// the serving layer's /healthz. A worker death no longer degrades the
// engine permanently: Recovering is set while a recovery episode runs,
// and once it completes the engine is healthy again — DeadWorkers then
// lists workers whose partitions were permanently handed to survivors.
// Degraded is terminal: every worker is dead and nothing can recover.
type Health struct {
	Degraded    bool  `json:"degraded"`
	Recovering  bool  `json:"recovering,omitempty"`
	DeadWorkers []int `json:"dead_workers,omitempty"`
}

// Health reports worker liveness. Safe to call concurrently with Run.
func (c *Controller) Health() Health { return *c.health.Load() }

// RecoveryStats reports the recovery totals. Safe to call concurrently
// with Run; the serving layer surfaces it in /stats.
func (c *Controller) RecoveryStats() RecoveryStats { return *c.recovery.Load() }

// publishHealth snapshots the liveness state for concurrent readers.
func (c *Controller) publishHealth() {
	h := &Health{Degraded: c.members.terminal, Recovering: c.adapt.phase == phaseRecover}
	for w := range c.members.dead {
		h.DeadWorkers = append(h.DeadWorkers, int(w))
	}
	sort.Ints(h.DeadWorkers)
	c.health.Store(h)
}
