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
// on a background cutter goroutine, and the result flows back through
// cutCh so truncation still happens on the event loop where the logs live.
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
	aborted bool
}

// maybeCheckpoint pins a checkpoint cut when the policy says the log grew
// (or aged) enough. Called after every applied commit, on the event loop
// — which is why it only pins and never materializes.
func (c *Controller) maybeCheckpoint(now time.Time) {
	if !c.cfg.SnapshotPolicy.Enabled() {
		return
	}
	if !c.cfg.SnapshotPolicy.Due(c.snapOps, c.snapBytes, now.Sub(c.lastSnapAt)) {
		return
	}
	if c.cutInFlight {
		// One cut at a time; remember that the policy re-fired so the
		// follow-up starts as soon as the cutter frees up.
		c.cutAgain = true
		return
	}
	c.startCut(now)
}

// requestCheckpoint is the manual trigger (POST /admin/snapshot): the
// reply is delivered once the requested cut — and its truncation —
// completed. A version that is already checkpointed replies immediately
// with Cut=false.
func (c *Controller) requestCheckpoint(ch chan snapshot.Result) {
	if c.cutInFlight {
		// The running cut pinned an older version; queue this caller for
		// the follow-up cut of the current one.
		c.cutAgain = true
		c.nextCutWaiters = append(c.nextCutWaiters, ch)
		return
	}
	if view := c.curView.Load(); view.Version() == c.lastSnapVersion {
		ch <- snapshot.Result{Version: view.Version(), Vertices: view.NumVertices(), Edges: view.NumEdges()}
		return
	}
	c.cutWaiters = append(c.cutWaiters, ch)
	c.startCut(c.cfg.Clock())
}

// startCut pins the immutable committed view — the only checkpoint work
// the event loop (and thus a commit) ever pays — and folds it
// on a background goroutine. The policy accounting resets at the pin;
// onCutDone restores it if the cut aborts.
func (c *Controller) startCut(now time.Time) {
	view := c.curView.Load()
	v := view.Version()
	c.cutInFlight = true
	c.cutPrevVersion, c.cutPrevAt = c.lastSnapVersion, c.lastSnapAt
	c.cutPinnedOps, c.cutPinnedBytes = c.snapOps, c.snapBytes
	c.snapOps, c.snapBytes = 0, 0
	c.lastSnapAt = now
	c.lastSnapVersion = v
	store := c.cfg.Snapshots
	cutCh := c.cutCh
	go func() {
		started := c.cfg.Clock()
		res := snapshot.Result{
			Version:  v,
			Vertices: view.NumVertices(),
			Edges:    view.NumEdges(),
		}
		g := view.Materialize()
		if faultpoint.Hit(faultpoint.SnapshotCut) {
			// Simulated crash mid-cut: the materialized graph never reached
			// the store, so the logs keep every batch — recovery replays the
			// longer tail over the previous checkpoint, correctness unharmed.
			cutCh <- cutDone{res: res, aborted: true}
			return
		}
		floor, perr := store.Add(&snapshot.Snapshot{Version: v, Graph: g})
		res.Cut = true
		res.Persisted = perr == nil && store.Dir() != ""
		c.lastCutNanos.Store(int64(c.cfg.Clock().Sub(started)))
		cutCh <- cutDone{res: res, floor: floor}
	}()
}

// onCutDone lands a finished background cut on the event loop: truncate
// the delta log and the WAL to the durable floor, answer the waiters, and
// start the queued follow-up cut if triggers (or manual requests) arrived
// while the cutter ran.
func (c *Controller) onCutDone(d cutDone) {
	c.cutInFlight = false
	res := d.res
	if d.aborted {
		// Nothing was cut; restore the policy accounting (including the
		// ops that committed while the cutter ran) so the next trigger
		// fires as if this cut never started.
		c.snapOps += c.cutPinnedOps
		c.snapBytes += c.cutPinnedBytes
		c.lastSnapVersion = c.cutPrevVersion
		c.lastSnapAt = c.cutPrevAt
	} else {
		if dur := time.Duration(c.lastCutNanos.Load()); dur > 0 {
			end := c.cfg.Clock()
			if co := c.obs; co != nil {
				co.snapCutSeconds.Observe(dur.Seconds())
			}
			c.lastCutUnixNS.Store(end.UnixNano())
			c.spanActiveQueries("snapshot/cut", end.Add(-dur), end,
				map[string]any{"version": res.Version, "vertices": res.Vertices, "edges": res.Edges})
			c.healthEvent(health.EventSnapshotCut, health.SevInfo, -1,
				fmt.Sprintf("snapshot cut at version %d (%d vertices, %d edges) in %s",
					res.Version, res.Vertices, res.Edges, dur.Round(time.Millisecond)),
				map[string]any{
					"version": res.Version, "vertices": res.Vertices,
					"edges": res.Edges, "duration_ms": float64(dur) / float64(time.Millisecond),
				})
		}
		floor := d.floor
		if c.cfg.privateSnapshots {
			// A store nobody else shares (no Config.Snapshots was wired in):
			// rejoining workers could never resolve a checkpoint from it, so
			// the log must keep reaching back to the base every replica has.
			floor = c.deltaLog.Base()
		}
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
		c.updateLogMirrors()
		res.TruncatedOps = int64(dropped)
		if res.Cut && !res.Persisted && c.cfg.Snapshots.Dir() != "" {
			// The fold succeeded but the durable write did not: let the
			// same version be cut again (an operator retrying
			// POST /admin/snapshot after fixing the disk must not get a
			// Cut=false no-op while nothing is durable at this version).
			c.lastSnapVersion = c.cutPrevVersion
		}
	}
	for _, ch := range c.cutWaiters {
		ch <- res
	}
	c.cutWaiters = nil
	if !c.cutAgain && len(c.nextCutWaiters) == 0 {
		return
	}
	c.cutAgain = false
	waiters := c.nextCutWaiters
	c.nextCutWaiters = nil
	if view := c.curView.Load(); view.Version() == c.lastSnapVersion {
		noop := snapshot.Result{Version: view.Version(), Vertices: view.NumVertices(), Edges: view.NumEdges()}
		for _, ch := range waiters {
			ch <- noop
		}
		return
	}
	c.cutWaiters = waiters
	c.startCut(c.cfg.Clock())
}

// updateLogMirrors publishes the log's size for concurrent /stats readers.
func (c *Controller) updateLogMirrors() {
	c.logLen.Store(int64(c.deltaLog.Len()))
	c.logOps.Store(int64(c.deltaLog.Ops()))
	c.logBytes.Store(c.deltaLog.Bytes())
}
