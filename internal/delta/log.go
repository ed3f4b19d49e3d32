package delta

import (
	"errors"
	"fmt"

	"qgraph/internal/graph"
)

// ErrGap marks a Since request for versions that were truncated away: the
// retained tail no longer connects to the caller's version, so replaying
// it would silently skip the ops in (v, Base()]. Callers must recover from
// the covering snapshot instead.
var ErrGap = errors.New("delta: requested versions truncated from log")

// Log is the replayable stream of committed mutation batches: the ops of
// every committed version in order. It is the recovery substrate — a
// respawned worker rebuilds its graph view from a shared base plus a
// replay of this log, instead of shipping graph data — and the reference
// for the consistency property that base + replay equals the live overlay
// at every version.
//
// The log no longer necessarily reaches back to version 0: checkpointing
// (internal/snapshot) folds a committed prefix into an immutable snapshot
// and truncates the covered batches, so Base() is the version of the
// newest checkpoint the retained tail replays over. A log rebased at B
// holds versions B+1..Head().
//
// A Log is confined to its owner's goroutine (the controller event loop);
// accessors copy, so snapshots handed to other goroutines stay stable.
type Log struct {
	base    uint64 // versions <= base are truncated (covered by a snapshot)
	batches []LogBatch
	ops     int
	bytes   int64
}

// LogBatch is one committed version's operations.
type LogBatch struct {
	Version uint64
	Ops     []Op
}

// Base returns the version the retained tail replays over: the newest
// truncation point (0 for a log that still reaches the original graph).
func (l *Log) Base() uint64 { return l.base }

// Len returns the number of retained batches.
func (l *Log) Len() int { return len(l.batches) }

// Ops returns the number of retained operations.
func (l *Log) Ops() int { return l.ops }

// Bytes returns the approximate wire size of the retained tail.
func (l *Log) Bytes() int64 { return l.bytes }

// Rebase sets the base version of an empty log (a controller starting from
// a checkpoint rather than version 0). Rebasing a non-empty log would
// orphan its batches and is an error.
func (l *Log) Rebase(v uint64) error {
	if len(l.batches) != 0 {
		return fmt.Errorf("delta: rebase of non-empty log (%d batches)", len(l.batches))
	}
	l.base = v
	return nil
}

// Append records the ops committed as version v. Versions must be
// appended contiguously from the base.
func (l *Log) Append(v uint64, ops []Op) error {
	if want := l.Head() + 1; v != want {
		return fmt.Errorf("delta: log append version %d, want %d", v, want)
	}
	l.batches = append(l.batches, LogBatch{Version: v, Ops: append([]Op(nil), ops...)})
	l.ops += len(ops)
	l.bytes += BatchWireBytes(len(ops))
	return nil
}

// Head returns the latest committed version in the log (Base() when empty).
func (l *Log) Head() uint64 { return l.base + uint64(len(l.batches)) }

// Since returns copies of every retained batch with Version > v, in order.
// v below the base is an ErrGap: the ops in (v, Base()] were truncated, so
// the retained tail does not connect to the caller's version — handing it
// out anyway would make the caller silently skip those ops. Callers whose
// view predates the base must rebuild from the covering snapshot.
func (l *Log) Since(v uint64) ([]LogBatch, error) {
	if v < l.base {
		return nil, fmt.Errorf("%w: have (%d, %d], want > %d", ErrGap, l.base, l.Head(), v)
	}
	if v >= l.Head() {
		return nil, nil
	}
	out := make([]LogBatch, 0, l.Head()-v)
	for _, b := range l.batches[v-l.base:] {
		out = append(out, LogBatch{Version: b.Version, Ops: append([]Op(nil), b.Ops...)})
	}
	return out, nil
}

// TruncateTo drops every batch with Version <= v (clamped to the retained
// range) and returns the number of operations released. Callers must hold
// a snapshot covering v before truncating — the dropped prefix is
// unrecoverable from the log alone.
func (l *Log) TruncateTo(v uint64) int {
	if v > l.Head() {
		v = l.Head()
	}
	if v <= l.base {
		return 0
	}
	n := int(v - l.base)
	dropped := 0
	for _, b := range l.batches[:n] {
		dropped += len(b.Ops)
	}
	// Copy the tail into a fresh slice so the dropped prefix is actually
	// released (the whole point of truncation is bounded memory).
	l.batches = append([]LogBatch(nil), l.batches[n:]...)
	l.base = v
	l.ops -= dropped
	l.bytes -= int64(n)*BatchWireOverhead + OpWireBytes*int64(dropped)
	return dropped
}

// Replay rebuilds the view at version upto by applying the retained
// batches over base — the graph at version Base() (the covering snapshot's
// graph, or the original graph for an untruncated log). Every replica that
// applies the same tail to the same base converges on the same logical
// graph, which is what lets a respawned worker adopt a partition without
// any graph data crossing the wire.
func (l *Log) Replay(base *graph.Graph, upto uint64) (*View, error) {
	if upto > l.Head() {
		return nil, fmt.Errorf("delta: replay to version %d beyond log head %d", upto, l.Head())
	}
	if upto < l.base {
		return nil, fmt.Errorf("delta: replay to version %d below log base %d (truncated)", upto, l.base)
	}
	return ReplayBatchesFrom(base, l.base, l.batches[:upto-l.base])
}

// ReplayBatchesFrom applies a contiguous batch sequence over base — the
// graph at version from — verifying the version chain.
func ReplayBatchesFrom(base *graph.Graph, from uint64, batches []LogBatch) (*View, error) {
	v := NewViewAt(base, from)
	for _, b := range batches {
		nv, _, err := v.Apply(b.Ops)
		if err != nil {
			return nil, fmt.Errorf("delta: replay batch %d: %w", b.Version, err)
		}
		if nv.Version() != b.Version {
			return nil, fmt.Errorf("delta: replay produced version %d, batch says %d", nv.Version(), b.Version)
		}
		v = nv
	}
	return v, nil
}
