package controller

import (
	"fmt"
	"time"

	"qgraph/internal/faultpoint"
	"qgraph/internal/obs/health"
	"qgraph/internal/snapshot"
)

// This file is the controller side of checkpointing (internal/snapshot):
// folding the committed graph view into a versioned, immutable snapshot
// and truncating the committed-op log (and the durable WAL) to the tail
// the checkpoint does not cover.
//
// Consistency comes for free from the commit protocol: the committed view
// only ever changes by a whole batch on the event loop, and every query
// runs against the version it pinned, so any committed version is
// superstep-consistent — no query ever observed a state between two
// versions. And because delta.View is immutable (every commit builds a
// new view), pinning a version is one pointer copy: the commit's only
// checkpoint work. The O(V+E) materialization and the durable write run
// in a background job, the cutter, whose report comes back as an event, so
// truncation still happens on the event loop where the logs live.
//
// Truncation safety: the logs are only dropped up to the *durable* floor
// the store reports — with a disk-backed store, a failed persist keeps the
// floor at the previous on-disk checkpoint, so a process restart can never
// be promised a replay base that does not exist. The WAL is truncated to
// the same floor, and only after the snapshot is durably in place: a crash
// between persist and truncation leaves extra (idempotently replayable)
// WAL records, never a gap.

// cutDone is the background cutter's report back to the event loop.
type cutDone struct {
	res     snapshot.Result
	floor   uint64
	dur     time.Duration // materialize + persist
	aborted bool
}

// cutPin is the cut in flight: who waits for its result, and the policy
// accounting it reset, which an abort restores.
type cutPin struct {
	waiters []chan snapshot.Result
	prevVer uint64
	prevAt  time.Time
	ops     int
	bytes   int64
}

// request queues ch for the next cut, of the version committed when it
// starts.
func (p *commits) request(ch chan snapshot.Result) { p.next = append(p.next, ch) }

// pinNext pins a cut of committed version v at now when the policy says
// the log grew (or aged) enough or a request waits, unless a cut is in
// flight: one at a time. start says it pinned one; current lists the
// requests to answer now, as v is already checkpointed.
func (p *commits) pinNext(v uint64, now time.Time) (start bool, current []chan snapshot.Result) {
	due := p.policy.Due(p.snapOps, p.snapBytes, now.Sub(p.lastSnapAt))
	if p.cut != nil || !due && len(p.next) == 0 {
		return false, nil
	}
	waiters := p.next
	p.next = nil
	if v == p.lastSnapVersion {
		return false, waiters
	}
	p.cut = &cutPin{
		waiters: waiters,
		prevVer: p.lastSnapVersion, prevAt: p.lastSnapAt,
		ops: p.snapOps, bytes: p.snapBytes,
	}
	p.snapOps, p.snapBytes, p.lastSnapAt, p.lastSnapVersion = 0, 0, now, v
	return true, nil
}

// land closes the cut in flight with the cutter's report d, returning the
// floor an op log based at base may be truncated to and who waits for the
// result. An aborted cut restores the policy accounting (with the ops
// committed meanwhile) as if it never started. A fold a disk-backed store
// failed to persist leaves its version re-cuttable: a retry after fixing
// the disk must cut, not answer a no-op while nothing is durable there. A
// private store's cuts keep the whole log: rejoining workers could never
// resolve them.
func (p *commits) land(d cutDone, base uint64) (floor uint64, waiters []chan snapshot.Result) {
	pin := p.cut
	p.cut = nil
	switch {
	case d.aborted:
		p.snapOps, p.snapBytes = p.snapOps+pin.ops, p.snapBytes+pin.bytes
		p.lastSnapVersion, p.lastSnapAt = pin.prevVer, pin.prevAt
	case !d.res.Persisted && p.onDisk:
		p.lastSnapVersion = pin.prevVer
	}
	if d.aborted || p.private {
		return base, pin.waiters
	}
	return d.floor, pin.waiters
}

// maybeCheckpoint hands out the cut the pipeline pins, if any: the cutter
// job folds the immutable committed view and reports a cutDone, writing
// nothing of the controller's, so the pin is the only checkpoint work the
// event loop (and thus a commit) ever pays. Called after every applied
// commit, on every tick, and for every request and landed cut.
func (c *Controller) maybeCheckpoint(now time.Time) {
	view := c.curView.Load()
	res := snapshot.Result{Version: view.Version(), Vertices: view.NumVertices(), Edges: view.NumEdges()}
	start, current := c.commits.pinNext(res.Version, now)
	for _, ch := range current {
		ch <- res
	}
	if !start {
		return
	}
	store, clock := c.cfg.Snapshots, c.cfg.Clock
	c.jobs = append(c.jobs, func() any {
		started := clock()
		g := view.Materialize()
		if faultpoint.Hit(faultpoint.SnapshotCut) {
			// Simulated crash mid-cut: the materialized graph never reached
			// the store, so the logs keep every batch — recovery replays the
			// longer tail over the previous checkpoint, correctness unharmed.
			return cutDone{res: res, aborted: true}
		}
		floor, perr := store.Add(&snapshot.Snapshot{Version: res.Version, Graph: g})
		res.Cut = true
		res.Persisted = perr == nil && store.Dir() != ""
		return cutDone{res: res, floor: floor, dur: clock().Sub(started)}
	})
}

// onCutDone lands a finished background cut on the event loop: truncate
// the delta log and the WAL to the durable floor, answer the waiters, and
// start the follow-up cut if triggers (or manual requests) arrived while
// the cutter ran.
func (c *Controller) onCutDone(d cutDone) {
	res := d.res
	floor, waiters := c.commits.land(d, c.deltaLog.Base())
	if !d.aborted {
		end := c.cfg.Clock()
		if co := c.obs; co != nil {
			co.snapCutSeconds.Observe(d.dur.Seconds())
		}
		c.spanActiveQueries("snapshot/cut", end.Add(-d.dur), end,
			map[string]any{"version": res.Version, "vertices": res.Vertices, "edges": res.Edges})
		c.healthEvent(health.EventSnapshotCut, health.SevInfo, -1,
			fmt.Sprintf("snapshot cut at version %d (%d vertices, %d edges) in %s",
				res.Version, res.Vertices, res.Edges, d.dur.Round(time.Millisecond)),
			map[string]any{
				"version": res.Version, "vertices": res.Vertices,
				"edges": res.Edges, "duration_ms": float64(d.dur) / float64(time.Millisecond),
			})
		dropped := c.deltaLog.TruncateTo(floor)
		c.cfg.Snapshots.AccountTruncated(dropped)
		if c.cfg.WAL != nil && c.cfg.Snapshots.Dir() != "" {
			// Safe order: with a dir-backed store the floor only advances
			// on a successful persist, so the snapshot at >= floor is
			// durable and the WAL prefix it covers is no longer needed for
			// restart recovery. A memory-only store's floor dies with the
			// process — its snapshots must never truncate the durable log,
			// or a restart would face a gap below the retained base.
			c.cfg.WAL.TruncateTo(floor)
		}
		c.publishLog(d.dur, end)
		res.TruncatedOps = int64(dropped)
	}
	for _, ch := range waiters {
		ch <- res
	}
	c.maybeCheckpoint(c.cfg.Clock())
}

// publishLog publishes the op log's size for concurrent readers (/stats,
// /metrics), and a landed cut's duration and completion time when end is
// set.
func (c *Controller) publishLog(dur time.Duration, end time.Time) {
	st := *c.logStats.Load()
	st.DeltaLogLen, st.DeltaLogOps, st.DeltaLogBytes = c.deltaLog.Len(), c.deltaLog.Ops(), c.deltaLog.Bytes()
	if !end.IsZero() {
		st.LastCutMS, st.LastCutUnixNS = float64(dur)/float64(time.Millisecond), end.UnixNano()
	}
	c.logStats.Store(&st)
}
