// Package recovery holds the worker-failure recovery policy of the
// controller: planning partition handoffs from dead workers to survivors,
// tracking one recovery episode's rounds (who must acknowledge the new
// ownership map, which respawned workers are rejoining, how long the
// episode took), and the counters surfaced through /stats.
//
// The package is deliberately free of event-loop code: the controller's
// single-goroutine state machine (internal/controller/recover.go) drives a
// Tracker and applies Plans, so every decision here is a pure function of
// explicit inputs and unit-testable without a running cluster.
//
// Directory note: the import path is internal/recover, but the package is
// named recovery so importers do not shadow the builtin recover.
package recovery

import (
	"sync/atomic"
	"time"

	"qgraph/internal/partition"
)

// PlanHandoff reassigns every vertex owned by a lost worker to a surviving
// worker, least-loaded first, mutating owner and counts in place. It
// returns the number of vertices that changed owner. The scan order is the
// vertex id order, so every replica of the plan is deterministic.
func PlanHandoff(owner partition.Assignment, counts []int64, lost func(partition.WorkerID) bool) int {
	moved := 0
	for v, w := range owner {
		if !lost(w) {
			continue
		}
		to := leastLoadedLive(counts, lost)
		if to < 0 {
			return moved // no survivors: nothing can adopt
		}
		owner[v] = partition.WorkerID(to)
		counts[w]--
		counts[to]++
		moved++
	}
	return moved
}

// RemapOwners rewrites any lost owner in owners (the NewOwners of a
// mutation batch sealed but not yet applied) to a surviving worker. The
// listed vertices are not yet reflected in counts (they are counted when
// the batch is applied), so balancing works on a scratch copy and counts
// is left untouched.
func RemapOwners(owners []partition.WorkerID, counts []int64, lost func(partition.WorkerID) bool) {
	scratch := append([]int64(nil), counts...)
	for i, w := range owners {
		if lost(w) {
			to := leastLoadedLive(scratch, lost)
			if to < 0 {
				return
			}
			owners[i] = partition.WorkerID(to)
		}
		scratch[owners[i]]++
	}
}

func leastLoadedLive(counts []int64, lost func(partition.WorkerID) bool) int {
	best := -1
	for w := range counts {
		if lost(partition.WorkerID(w)) {
			continue
		}
		if best < 0 || counts[w] < counts[best] {
			best = w
		}
	}
	return best
}

// Tracker is one recovery episode's bookkeeping. An episode starts at the
// first worker death and ends when a round's every live worker has
// acknowledged the recovery generation; further deaths during an episode
// start new rounds (with a new generation) inside the same episode, so the
// measured duration covers the whole outage.
type Tracker struct {
	gen       int32
	active    bool
	startedAt time.Time

	// awaitHello holds dead workers a respawn was launched for; until the
	// deadline the round is deferred so the respawned worker can adopt its
	// old partition in place (no ownership churn).
	awaitHello map[partition.WorkerID]bool
	helloBy    time.Time

	// rejoining holds workers granted back into the live set this round.
	rejoining map[partition.WorkerID]bool

	need map[partition.WorkerID]bool
	acks map[partition.WorkerID]bool
}

// Active reports whether an episode is in progress.
func (t *Tracker) Active() bool { return t.active }

// Gen returns the current recovery generation.
func (t *Tracker) Gen() int32 { return t.gen }

// StartedAt returns the episode start time (zero when idle).
func (t *Tracker) StartedAt() time.Time { return t.startedAt }

// BeginRound opens a new round: the generation advances and all round
// state clears. The episode start time is set on the first round only.
func (t *Tracker) BeginRound(now time.Time) int32 {
	t.gen++
	if !t.active {
		t.active = true
		t.startedAt = now
	}
	t.awaitHello = nil
	t.helloBy = time.Time{}
	t.rejoining = nil
	t.need = nil
	t.acks = nil
	return t.gen
}

// AwaitHello defers the round until w's respawn says hello (or deadline
// passes). Multiple workers may be awaited in one round.
func (t *Tracker) AwaitHello(w partition.WorkerID, deadline time.Time) {
	if t.awaitHello == nil {
		t.awaitHello = make(map[partition.WorkerID]bool)
	}
	t.awaitHello[w] = true
	if t.helloBy.IsZero() || deadline.After(t.helloBy) {
		t.helloBy = deadline
	}
}

// Waiting reports whether the round is still deferred on respawn hellos at
// time now. Once every awaited worker said hello — or the deadline passed
// — the round should proceed.
func (t *Tracker) Waiting(now time.Time) bool {
	return len(t.awaitHello) > 0 && now.Before(t.helloBy)
}

// OnHello records a respawned worker's hello. It reports whether the
// worker was part of this episode's dead set awaiting respawn.
func (t *Tracker) OnHello(w partition.WorkerID) bool {
	if !t.awaitHello[w] {
		return false
	}
	delete(t.awaitHello, w)
	t.markRejoining(w)
	return true
}

// markRejoining adds w to the set granted back this round.
func (t *Tracker) markRejoining(w partition.WorkerID) {
	if t.rejoining == nil {
		t.rejoining = make(map[partition.WorkerID]bool)
	}
	t.rejoining[w] = true
}

// MarkRejoining is the exported form for late hellos (a worker admitted
// back after its partition was already handed off).
func (t *Tracker) MarkRejoining(w partition.WorkerID) { t.markRejoining(w) }

// Rejoining reports whether w is being granted back this round.
func (t *Tracker) Rejoining(w partition.WorkerID) bool { return t.rejoining[w] }

// ExpectAcks arms the acknowledgement set: the round completes once every
// listed worker acknowledged the current generation.
func (t *Tracker) ExpectAcks(ws []partition.WorkerID) {
	t.need = make(map[partition.WorkerID]bool, len(ws))
	for _, w := range ws {
		t.need[w] = true
	}
	t.acks = make(map[partition.WorkerID]bool, len(ws))
}

// OnAck records a worker's acknowledgement of generation gen. It returns
// fresh=false for stale or unexpected acks, and done=true once every
// expected worker acknowledged.
func (t *Tracker) OnAck(w partition.WorkerID, gen int32) (fresh, done bool) {
	if gen != t.gen || t.need == nil || !t.need[w] || t.acks[w] {
		return false, false
	}
	t.acks[w] = true
	return true, len(t.acks) == len(t.need)
}

// Finish closes the episode and returns its duration.
func (t *Tracker) Finish(now time.Time) time.Duration {
	d := now.Sub(t.startedAt)
	t.active = false
	t.startedAt = time.Time{}
	t.awaitHello, t.rejoining, t.need, t.acks = nil, nil, nil, nil
	return d
}

// Stats is a snapshot of the recovery counters surfaced through /stats.
type Stats struct {
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

// Counters accumulates recovery statistics; all methods are safe for
// concurrent use (the event loop writes, HTTP handlers read).
type Counters struct {
	recoveries       atomic.Int64
	handoffs         atomic.Int64
	rejoins          atomic.Int64
	queriesRestarted atomic.Int64
	lastNanos        atomic.Int64
}

// Episode records one completed episode.
func (c *Counters) Episode(d time.Duration, handoffs, rejoins, restarted int) {
	c.recoveries.Add(1)
	c.handoffs.Add(int64(handoffs))
	c.rejoins.Add(int64(rejoins))
	c.queriesRestarted.Add(int64(restarted))
	c.lastNanos.Store(int64(d))
}

// Snapshot returns the current totals.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Recoveries:       c.recoveries.Load(),
		Handoffs:         c.handoffs.Load(),
		Rejoins:          c.rejoins.Load(),
		QueriesRestarted: c.queriesRestarted.Load(),
		LastRecoveryMS:   float64(c.lastNanos.Load()) / float64(time.Millisecond),
	}
}
