package controller

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
)

// This file is the MAPE loop of Sec. 3.4: Monitor (scope sizes arrive on
// barrier reports, handled in barrier.go; the intersection statistics are
// pulled from the workers when a plan or QcutSnapshot reads them), Analyze
// (average query locality against the threshold Φ), Plan (run Q-cut
// asynchronously on a snapshot of the high-level view), Execute (global
// barrier with move directives, global.go).

const (
	// defaultPhi is the locality threshold Φ when Config.Phi is unset
	// (Sec. 3.4).
	defaultPhi = 0.7
	// balanceSlack is the workload balance slack δ (Appendix A.1): the
	// trigger fires past it, and Q-cut keeps its plans within it.
	balanceSlack = 0.25
	// minWindowQueries is how many finished queries the trigger waits for,
	// so it never repartitions on no evidence.
	minWindowQueries = 8
)

// onTick runs the Analyze step. Repartitioning triggers when the
// statistics indicate the current partitioning is suboptimal (Sec. 3.4):
// either the average query locality fell below Φ, or the high-level
// workload measure Lw = (|V(w)| + Σ|LS(q,w)|)/2 (Appendix A.1) exceeds the
// balance slack δ — the straggler signal that lets Q-cut improve even on
// the high-locality Domain partitioning (Figs. 5–6). The trigger uses the
// same load measure Q-cut optimizes; live traffic imbalance from skewed
// hotspot populations is not actionable under a locality objective and
// must not cause repartitioning loops.
func (c *Controller) onTick() {
	now := c.cfg.Clock()
	c.heartbeat(now)
	if c.members.expired(now) {
		// The respawn hello window expired; hand the partition to the
		// survivors.
		c.planRound()
	}
	c.maybeCommit(now)
	c.maybeCheckpoint(now)
	c.watchStalls(now)
	if !c.cfg.Adapt || c.phase != phaseRun || c.qcutRunning {
		return
	}
	// Q-cut is live-set-aware: a shrunken cluster keeps adapting over the
	// survivors (dead workers are masked out of the snapshot), and a
	// rejoined-empty worker shows up as the least-loaded target — the
	// imbalance trigger below then actively re-loads it instead of waiting
	// for organic moves.
	imbalanced := c.lwImbalance() > balanceSlack
	if c.curCooldown == 0 {
		c.curCooldown = c.cfg.Cooldown
	}
	if now.Sub(c.lastRepart) < c.curCooldown {
		return
	}
	c.pruneWindow(now)
	if len(c.window) < minWindowQueries {
		return
	}
	loc := c.avgLocality()
	if loc >= c.cfg.Phi && !imbalanced {
		c.curCooldown = c.cfg.Cooldown
		return
	}
	// Backoff when the previous plan did not move the needle. A recovery
	// handoff is a repartition too, but no plan to compare against.
	if c.planExecuted {
		if loc < c.trigLocality+0.02 {
			c.curCooldown = min(2*c.curCooldown, 16*c.cfg.Cooldown)
		} else {
			c.curCooldown = c.cfg.Cooldown
		}
	}
	c.trigLocality = loc
	// Plan: pull the statistics, then run Q-cut on a snapshot,
	// asynchronously — the partitioning latency is hidden behind normal
	// query processing (Sec. 3.4).
	c.qcutRunning = true
	c.pullStats(true, nil)
}

// pullStats asks every live worker for its window's intersection pairs, or
// joins the pull already in flight. When the last answer is in, plan runs
// Q-cut on the result and ch, if not nil, receives it.
func (c *Controller) pullStats(plan bool, ch chan qcut.Input) {
	if c.pull == nil {
		c.pullSeq++
		p := &statsPull{
			seq:     c.pullSeq,
			waiting: liveSet(c.cfg.K, c.members.dead),
			pairs:   make([][]protocol.IntersectionStat, c.cfg.K),
		}
		c.pull = p
		c.broadcast(&protocol.StatsPull{Seq: p.seq})
	}
	c.pull.plan = c.pull.plan || plan
	if ch != nil {
		c.pull.readers = append(c.pull.readers, ch)
	}
	c.maybePulled()
}

// onStatsReport records a worker's answer to the pull in flight; an answer
// to an earlier pull, or from a worker that left the pull, is dropped.
func (c *Controller) onStatsReport(m *protocol.StatsReport) {
	if p := c.pull; p != nil && p.seq == m.Seq && p.waiting[m.W] {
		p.pairs[m.W] = m.Pairs
		delete(p.waiting, m.W)
		c.maybePulled()
	}
}

// maybePulled completes the pull once no live worker owes an answer. A
// worker declared dead leaves the pull's wait set (onWorkerDead), and
// snapshot masks its rows anyway.
func (c *Controller) maybePulled() {
	p := c.pull
	if p == nil || len(p.waiting) > 0 {
		return
	}
	c.pull = nil
	now := c.cfg.Clock()
	for _, ch := range p.readers {
		ch <- c.snapshot(now, p.pairs) // each reader owns its copy
	}
	if p.plan {
		in := c.snapshot(now, p.pairs)
		go func() {
			c.qcutCh <- qcut.Run(in)
		}()
	}
}

// lwImbalance is the straggler signal: the relative spread of the paper's
// combined load measure Lw = (|V(w)| + Σ_q |LS(q,w)|)/2 computed from the
// controller's high-level view (windowed and active scope sizes), with the
// scope term normalized exactly as in Q-cut's balance constraint so the
// trigger never demands a balance Q-cut cannot deliver.
func (c *Controller) lwImbalance() float64 {
	scope := make([]float64, c.cfg.K)
	var totalV, totalScope float64
	for w := 0; w < c.cfg.K; w++ {
		if c.members.dead[partition.WorkerID(w)] {
			continue
		}
		totalV += float64(c.vertCount[w])
	}
	// Scope mass the window still attributes to dead workers describes
	// state the failure destroyed; counting it would deflate the
	// normalization scale and under-report the live spread.
	for _, we := range c.window {
		for w, sz := range we.sizes {
			if c.members.dead[partition.WorkerID(w)] {
				continue
			}
			scope[w] += float64(sz)
			totalScope += float64(sz)
		}
	}
	for _, ctl := range c.queries {
		for w, sz := range ctl.scopeSizes {
			if c.members.dead[partition.WorkerID(w)] {
				continue
			}
			scope[w] += float64(sz)
			totalScope += float64(sz)
		}
	}
	scale := 1.0
	if totalScope > totalV && totalScope > 0 {
		scale = totalV / totalScope
	}
	// Dead workers carry no load by definition; including them would pin
	// the spread at 1 and make the trigger fire forever over an imbalance
	// no scope move can repair.
	var minL, maxL float64
	first := true
	for w := 0; w < c.cfg.K; w++ {
		if c.members.dead[partition.WorkerID(w)] {
			continue
		}
		l := (float64(c.vertCount[w]) + scale*scope[w]) / 2
		if first || l < minL {
			minL = l
		}
		if first || l > maxL {
			maxL = l
		}
		first = false
	}
	if maxL <= 0 {
		return 0
	}
	return (maxL - minL) / maxL
}

// avgLocality is the Analyze metric: mean fraction of fully-local
// iterations over the queries in the monitoring window.
func (c *Controller) avgLocality() float64 {
	if len(c.window) == 0 {
		return 1
	}
	sum := 0.0
	for _, we := range c.window {
		sum += we.locality
	}
	return sum / float64(len(c.window))
}

// snapshot builds the Q-cut input from the high-level global view: scope
// size rows for windowed (finished) and active queries, the intersections
// pairs[w] worker w reported, summed over live workers, and the
// authoritative per-worker vertex counts.
func (c *Controller) snapshot(now time.Time, pairs [][]protocol.IntersectionStat) qcut.Input {
	// Live-set mask: recovery destroyed whatever scope state the window
	// still attributes to dead workers, so their rows are zeroed and they
	// are invisible to Q-cut's balance constraint and move targets.
	alive := make([]bool, c.cfg.K)
	for w := 0; w < c.cfg.K; w++ {
		alive[w] = !c.members.dead[partition.WorkerID(w)]
	}
	maskRow := func(sizes []int64) []int64 {
		out := append([]int64(nil), sizes...)
		for w := range out {
			if !alive[w] {
				out[w] = 0
			}
		}
		return out
	}
	// Windowed queries come first, in finish order, then live ones by
	// ascending id: Q-cut draws its randomness in input order, so the input
	// must not follow map order. rowOf is a query's index.
	rows := make([]qcut.ScopeRow, 0, len(c.window)+len(c.queries))
	rowOf := make(map[query.ID]int, len(c.window)+len(c.queries))
	for _, we := range c.window {
		rowOf[we.q] = len(rows)
		rows = append(rows, qcut.ScopeRow{Q: we.q, Sizes: maskRow(we.sizes)})
	}
	for _, q := range slices.Sorted(maps.Keys(c.queries)) {
		if _, seen := rowOf[q]; !seen {
			rowOf[q] = len(rows)
			rows = append(rows, qcut.ScopeRow{Q: q, Sizes: maskRow(c.queries[q].scopeSizes)})
		}
	}
	// A worker names each pair once, so summing over live workers gives
	// the pair's overlap. A pair may name a query that left the window
	// since the worker answered; it has no row and is dropped.
	agg := make(map[[2]query.ID]int64)
	for w, stats := range pairs {
		if !alive[w] {
			continue
		}
		for _, is := range stats {
			_, ok1 := rowOf[is.Q1]
			if _, ok2 := rowOf[is.Q2]; ok1 && ok2 {
				agg[[2]query.ID{min(is.Q1, is.Q2), max(is.Q1, is.Q2)}] += int64(is.Shared)
			}
		}
	}
	inter := make([]qcut.Intersection, 0, len(agg))
	for pair, shared := range agg {
		inter = append(inter, qcut.Intersection{Q1: pair[0], Q2: pair[1], Shared: shared})
	}
	slices.SortFunc(inter, func(a, b qcut.Intersection) int {
		return cmp.Or(cmp.Compare(a.Q1, b.Q1), cmp.Compare(a.Q2, b.Q2))
	})
	return qcut.Input{
		K:             c.cfg.K,
		Scopes:        rows,
		Intersections: inter,
		VertexCounts:  append([]int64(nil), c.vertCount...),
		Alive:         alive,
		Delta:         balanceSlack,
		Deadline:      now.Add(qcut.Budget),
		Seed:          c.cfg.Seed + uint64(c.epoch),
	}
}

// onQcutDone is the Plan → Execute handoff: if the search found improving
// moves, execute them under a global barrier.
func (c *Controller) onQcutDone(res qcut.Result) {
	c.qcutRunning = false
	c.lastRepart = c.cfg.Clock()
	if c.phase != phaseRun {
		return
	}
	// A plan computed from a pre-failure snapshot may still reference a
	// worker that died meanwhile: a move from it can never be acknowledged
	// (the worker is fenced) and a move onto it would strand the scope.
	// Drop those directives and execute the rest — the next tick replans
	// over the current live set.
	moves := res.Moves[:0]
	for _, mv := range res.Moves {
		if c.members.dead[mv.From] || c.members.dead[mv.To] {
			continue
		}
		moves = append(moves, mv)
	}
	if len(moves) == 0 {
		return
	}
	c.planExecuted = true
	c.beginGlobalBarrier(moves)
}
