package controller

import (
	"slices"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
)

// This file is the MAPE loop of Sec. 3.4: Monitor (scope sizes arrive on
// barrier reports; the intersection statistics are pulled when a plan or
// QcutSnapshot reads them), Analyze (the window's locality against Φ, its
// load spread against δ), Plan (Q-cut, asynchronously, on a snapshot of
// the high-level view), Execute (the global barrier, global.go).
//
// adapt holds all of it and the barrier: the phase, which recovery shares
// (a round is open exactly while it is phaseRecover, recover.go), the
// barrier's epoch and acks, the plan and the pull in flight, and the
// trigger's backoff. Its transitions read nothing but it and their
// arguments — no connection, channel, goroutine, clock or instrument —
// and only they assign its fields. The controller does the I/O.

const (
	// defaultPhi is the locality threshold Φ (Sec. 3.4).
	defaultPhi = 0.7
	// balanceSlack is the workload balance slack δ (Appendix A.1): the
	// trigger fires past it, and Q-cut keeps its plans within it.
	balanceSlack = 0.25
	// minWindowQueries is how many finished queries the trigger waits for,
	// so it never repartitions on no evidence.
	minWindowQueries = 8
	// noPlan is adapt.raised before any plan executed: below every locality.
	noPlan = -1.0
)

// adapt is adaptation and the global barrier.
type adapt struct {
	k        int
	cooldown time.Duration // Config.Cooldown, the backoff's floor

	phase     phase
	epoch     int32 // the last global barrier's
	acksLeft  int   // StopAcks (stopping) or MoveAcks (moving) still due
	plan      *plan // from the trigger to the end of its barrier
	ownDeltaV []graph.VertexID
	ownDeltaW []partition.WorkerID
	pull      *statsPull // nil when none is in flight
	pullSeq   int64

	// The trigger backoff: when repartitioning stops improving locality
	// (e.g. the workload inherently spans workers), curCooldown doubles up
	// to 16× so global barriers do not thrash the very queries they are
	// meant to help; any improvement resets it. raised is the locality the
	// last executed plan was meant to raise: a recovery handoff, a plan
	// that moved nothing and a plan whose barrier recovery aborted are no
	// plan to compare against.
	lastRepart  time.Time
	curCooldown time.Duration
	raised      float64
}

// statsPull is a StatsPull in flight: the live workers yet to answer, the
// pairs each answer brought, and whether a plan reads the Q-cut input it
// completes (QcutSnapshot callers may read it too).
type statsPull struct {
	seq     int64
	waiting map[partition.WorkerID]bool
	pairs   [][]protocol.IntersectionStat // by worker
	plan    bool
}

// plan is a plan in flight: the locality it is meant to raise, and its
// moves until the barrier sends them (Q-cut computes them in run or recover).
type plan struct {
	loc   float64
	moves []qcut.Move
}

func newAdapt(cfg *Config) adapt {
	return adapt{k: cfg.K, cooldown: cfg.Cooldown, curCooldown: cfg.Cooldown, raised: noPlan}
}

// due says whether the trigger looks at the window at now: the phase is
// run, no plan is in flight, and the cooldown since the last plan passed.
func (a *adapt) due(now time.Time) bool {
	return a.phase == phaseRun && a.plan == nil && now.Sub(a.lastRepart) >= a.curCooldown
}

// trigger opens a plan, and says so, when a window of n finished queries
// with average locality loc and load spread imbalance shows the current
// partitioning suboptimal (Sec. 3.4): locality below Φ, or the workload
// measure Lw (Appendix A.1) spread past δ — the straggler signal that lets
// Q-cut improve even on the Domain partitioning (Figs. 5–6).
func (a *adapt) trigger(n int, loc, imbalance float64) bool {
	if n < minWindowQueries {
		return false
	}
	if loc >= defaultPhi && imbalance <= balanceSlack {
		a.curCooldown = a.cooldown
		return false
	}
	if loc < a.raised+0.02 {
		a.curCooldown = min(2*a.curCooldown, 16*a.cooldown)
	} else {
		a.curCooldown = a.cooldown
	}
	a.plan = &plan{loc: loc}
	return true
}

// startPull opens a pull over the live workers unless one is in flight,
// and marks it a plan's if plan is set. It returns the sequence number of
// the pull it opened (0 if it joined one) and, like report, the pull once
// no live worker owes an answer.
func (a *adapt) startPull(live map[partition.WorkerID]bool, plan bool) (opened int64, done *statsPull) {
	if a.pull == nil {
		a.pullSeq++
		opened = a.pullSeq
		a.pull = &statsPull{seq: opened, waiting: live, pairs: make([][]protocol.IntersectionStat, a.k)}
	}
	a.pull.plan = a.pull.plan || plan
	return opened, a.pulled()
}

// report records a worker's answer to the pull in flight; an answer to an
// earlier pull, or from a worker that left the pull, is dropped. Recovery
// answers for a worker declared dead, with nothing (snapshot masks it).
func (a *adapt) report(m *protocol.StatsReport) (done *statsPull) {
	if p := a.pull; p != nil && p.seq == m.Seq && p.waiting[m.W] {
		p.pairs[m.W] = m.Pairs
		delete(p.waiting, m.W)
	}
	return a.pulled()
}

// pulled completes the pull in flight once no live worker owes an answer.
func (a *adapt) pulled() *statsPull {
	p := a.pull
	if p == nil || len(p.waiting) > 0 {
		return nil
	}
	a.pull = nil
	return p
}

// planned hands Q-cut's moves to the barrier at now and says whether it
// begins (phase quiesce). A move from a worker that died since the
// snapshot can never be acknowledged (the worker is fenced), and a move
// onto one would strand the scope: those go, and the next trigger replans
// over the live set.
func (a *adapt) planned(now time.Time, moves []qcut.Move, dead map[partition.WorkerID]bool) bool {
	a.lastRepart = now
	p := a.plan
	a.plan = nil
	moves = slices.DeleteFunc(moves, func(mv qcut.Move) bool { return dead[mv.From] || dead[mv.To] })
	if a.phase != phaseRun || len(moves) == 0 {
		return false
	}
	p.moves = moves
	a.plan = p
	a.phase = phaseQuiesce
	return true
}

// onTick runs the periodic work, the trigger last. The trigger reads the
// window μ keeps, with the load measure Q-cut optimizes (live traffic
// imbalance is not actionable under a locality objective), over the live
// workers: a rejoined-empty worker is the least-loaded target, which the
// balance rule then re-loads instead of waiting for organic moves.
func (c *Controller) onTick() {
	now := c.cfg.Clock()
	c.heartbeat(now)
	if c.members.expired(now) {
		// The hello window expired: hand the partition to the survivors.
		c.planRound()
	}
	c.maybeCommit(now)
	c.maybeCheckpoint(now)
	c.watchStalls(now)
	if !c.cfg.Adapt || !c.adapt.due(now) {
		return
	}
	c.pruneWindow(now)
	if c.adapt.trigger(len(c.window), c.avgLocality(), qcut.Imbalance(c.snapshot(nil))) {
		// Q-cut runs asynchronously, hidden behind query processing.
		c.pullStats(true, nil)
	}
}

// pullStats asks every live worker for its window's intersection pairs, or
// joins the pull already in flight. When the last answer is in, pulled
// hands the result on; ch, if not nil, receives it.
func (c *Controller) pullStats(plan bool, ch chan qcut.Input) {
	if ch != nil {
		c.readers = append(c.readers, ch)
	}
	seq, done := c.adapt.startPull(liveSet(c.cfg.K, c.members.dead), plan)
	if seq != 0 {
		c.broadcast(&protocol.StatsPull{Seq: seq})
	}
	c.pulled(done)
}

// pulled gives a completed pull's Q-cut input to every QcutSnapshot reader
// and, for a plan's pull, to a Q-cut job. The job stamps the budget when it
// starts, from the wall clock qcut.Run reads: the budget bounds Q-cut's own
// CPU, whatever clock the controller runs on.
func (c *Controller) pulled(p *statsPull) {
	if p == nil {
		return
	}
	for _, ch := range c.readers {
		ch <- c.snapshot(p.pairs) // each reader owns its copy
	}
	c.readers = nil
	if p.plan {
		in := c.snapshot(p.pairs)
		c.jobs = append(c.jobs, func() any {
			in.Deadline = time.Now().Add(qcut.Budget)
			return qcut.Run(in)
		})
	}
}

// onQcutDone executes Q-cut's moves under a global barrier.
func (c *Controller) onQcutDone(res qcut.Result) {
	if c.adapt.planned(c.cfg.Clock(), res.Moves, c.members.dead) {
		c.leftPhase(phaseRun)
		c.maybeStop()
	}
}
