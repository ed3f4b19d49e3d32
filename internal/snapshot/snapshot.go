// Package snapshot implements checkpointing for the streaming-update data
// plane: the committed graph state (CSR base plus the delta overlay at a
// committed version) is periodically folded into a versioned, immutable
// snapshot. Checkpoints are the antidote to the unbounded committed-op log
// of internal/delta — once a snapshot exists at version V, every batch with
// version <= V can be truncated, a rejoining worker replays (snapshot,
// tail) instead of (version 0, full log), and a qgraphd deployment can
// restart from disk without the original mutation history.
//
// Snapshots are always cut from a committed view, which only ever changes
// inside the global STOP/START barrier — so a checkpoint is by construction
// superstep-consistent: no query ever observed a state between two
// checkpointable versions.
//
// The package has three pieces: Policy decides when the controller cuts a
// checkpoint (ops / bytes accumulated in the log, or wall-clock interval),
// Store keeps the recent snapshots (in memory always, optionally persisted
// to a directory with a checksummed binary codec), and the file codec in
// codec.go implements the durable format.
package snapshot

import (
	"time"

	"qgraph/internal/graph"
)

// Snapshot is one checkpoint: the full logical graph at a committed
// version, materialized as a standalone immutable CSR graph. The graph is
// shared, never mutated — replicas may replay delta batches over it
// concurrently.
type Snapshot struct {
	Version uint64
	Graph   *graph.Graph
}

// Policy decides when the controller cuts the next checkpoint. Any
// combination of triggers may be armed; a zero field disables that
// trigger, and the zero Policy disables automatic checkpointing entirely
// (manual cuts via the admin API still work).
type Policy struct {
	// EveryOps cuts once this many operations committed since the last
	// checkpoint.
	EveryOps int
	// EveryBytes cuts once the committed ops since the last checkpoint
	// exceed this wire size (the same accounting as delta.Log.Bytes).
	EveryBytes int64
	// Interval cuts on wall-clock age, provided at least one op committed
	// since the last checkpoint (an idle graph never needs a new one).
	Interval time.Duration
}

// Enabled reports whether any automatic trigger is armed.
func (p Policy) Enabled() bool {
	return p.EveryOps > 0 || p.EveryBytes > 0 || p.Interval > 0
}

// Due reports whether a checkpoint should be cut, given the ops and bytes
// committed since the last one and the time elapsed since it.
func (p Policy) Due(ops int, bytes int64, elapsed time.Duration) bool {
	if ops <= 0 {
		return false // nothing new to fold in
	}
	if p.EveryOps > 0 && ops >= p.EveryOps {
		return true
	}
	if p.EveryBytes > 0 && bytes >= p.EveryBytes {
		return true
	}
	if p.Interval > 0 && elapsed >= p.Interval {
		return true
	}
	return false
}

// Result reports the outcome of one checkpoint request (the admin API's
// response body).
type Result struct {
	// Version is the graph version the checkpoint covers (the current
	// committed version, whether or not a new snapshot was cut for it).
	Version  uint64 `json:"version"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Cut is false when the version was already checkpointed (no-op) or
	// the cut was aborted.
	Cut bool `json:"cut"`
	// Persisted reports a durable write to the snapshot directory.
	Persisted bool `json:"persisted"`
	// TruncatedOps counts the log operations this cut released.
	TruncatedOps int64 `json:"truncated_ops"`
}

// Stats is the checkpointing block of /stats: snapshot accounting from the
// Store plus the live size of the committed-op log (filled in by the
// controller, which owns the log).
type Stats struct {
	Snapshots           int64  `json:"snapshot_count"`
	LastSnapshotVersion uint64 `json:"last_snapshot_version"`
	TruncatedOps        int64  `json:"truncated_ops_total"`
	Persisted           int64  `json:"persisted,omitempty"`
	PersistFailures     int64  `json:"persist_failures,omitempty"`
	DeltaLogLen         int    `json:"delta_log_len"`
	DeltaLogOps         int    `json:"delta_log_ops"`
	DeltaLogBytes       int64  `json:"delta_log_bytes"`
	// LastCutMS is the wall time of the newest completed cut (materialize
	// + persist), all of it spent on the background cutter — evidence that
	// no commit pays the O(V+E) fold.
	LastCutMS float64 `json:"last_cut_ms,omitempty"`
	// LastCutUnixNS is the wall-clock completion time of the newest cut
	// (unix nanoseconds; 0 before the first). /healthz derives its
	// seconds-since-last-checkpoint lag field from it.
	LastCutUnixNS int64 `json:"last_cut_unix_ns,omitempty"`
}
