// Package protocol defines the messages exchanged between the Q-Graph
// controller, workers, and worker peers. It is the concrete realisation of
// the paper's API (Table 2): scheduleQuery/executeQuery, barrierSynch/
// barrierReady with piggybacked scope sizes, the pull of the intersection
// statistics, move, and the global STOP/START barrier — plus the low-level
// vertex message batches.
//
// Node addressing: node 0 is the controller, node w+1 is worker w.
package protocol

import (
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/query"
)

// NodeID addresses a protocol participant: 0 = controller, w+1 = worker w.
type NodeID uint8

// ControllerNode is the controller's node id.
const ControllerNode NodeID = 0

// WorkerNode converts a worker id to its node id.
func WorkerNode(w partition.WorkerID) NodeID { return NodeID(w) + 1 }

// WorkerOf converts a worker node id back to the worker id. Must not be
// called with ControllerNode.
func WorkerOf(n NodeID) partition.WorkerID { return partition.WorkerID(n - 1) }

// MsgType discriminates wire messages.
type MsgType uint8

// Message type tags. The numeric values are part of the wire format; a
// retired tag stays reserved (_), so no other message changes its tag.
const (
	// controller → worker
	TExecuteQuery MsgType = iota + 1
	TBarrierReady
	TQueryFinish
	TGlobalStop
	_ // DrainCheck, retired
	TMoveScope
	TOwnershipUpdate
	TGlobalStart
	TShutdown
	// worker → controller
	TBarrierSynch
	TStopAck
	_ // DrainAck, retired
	TMoveAck
	// worker ↔ worker
	TVertexBatch
	TScopeData
	// Streaming graph updates and liveness (appended to keep the earlier
	// wire values stable).
	// controller → worker
	TDeltaBatch
	TPing
	// worker → controller
	TDeltaAck
	TPong
	// Worker failure recovery (appended to keep earlier wire values
	// stable).
	// controller → worker
	TRecoverStart
	TPartitionGrant
	// worker → controller
	TWorkerHello
	TPartitionAck
	// Global barrier marker (appended to keep earlier wire values stable).
	// worker ↔ worker
	TStopMarker
	// Monitoring statistics on demand (appended to keep earlier wire values
	// stable).
	// controller → worker
	TStatsPull
	// worker → controller
	TStatsReport
)

// Message is any protocol message.
type Message interface {
	Type() MsgType
}

// ---------------------------------------------------------------------------
// Controller → worker

// ExecuteQuery asks workers to start executing a query (paper API
// executeQuery(q)). It is broadcast; only workers owning initially active
// vertices do work in superstep 0.
type ExecuteQuery struct {
	Spec query.Spec
}

// Type implements Message.
func (*ExecuteQuery) Type() MsgType { return TExecuteQuery }

// BarrierReady releases a worker waiting on query Q's barrier for superstep
// Step (paper API barrierReady(q)). Expect is the number of vertex batches
// tagged (Q, Step-1) the worker must have received before computing Step.
// Drained means a global barrier intervened and all in-flight batches were
// already delivered (skip the Expect wait). BestGoal is the best goal the
// controller has seen of Q, which bounds a run as the workers' own do.
//
// Peers, set on every hybrid release that is not drained, lists the
// involved workers, the receiver included, and makes the release a run:
// after each superstep the peers take Rules.Decide over every peer's
// StepSummary, and while it says the same peers continue, they release the
// next superstep themselves. A run of one is the local query barrier (Sec.
// 3.3): it decides on its own summary and reports once, when the run
// stops. In a run of several each peer sends the others its summary on its
// last VertexBatch of the step, and reports every step. A global barrier
// waits for every run to stop.
type BarrierReady struct {
	Q        query.ID
	Step     int32
	Expect   int32
	Drained  bool
	BestGoal float64
	Peers    []partition.WorkerID
}

// Type implements Message.
func (*BarrierReady) Type() MsgType { return TBarrierReady }

// FinishReason says why a query ended.
type FinishReason uint8

// Finish reasons.
const (
	FinishConverged  FinishReason = iota + 1 // no active vertices remain
	FinishEarly                              // monotone bound: goal can't improve
	FinishMaxIters                           // superstep cap reached
	FinishCancelled                          // shutdown or user cancel
	FinishRejected                           // invalid request (e.g. reused query id)
	FinishWorkerLost                         // a worker stopped answering heartbeats
)

// String returns the reason name (also the serving API's wire value).
func (r FinishReason) String() string {
	switch r {
	case FinishConverged:
		return "converged"
	case FinishEarly:
		return "early"
	case FinishMaxIters:
		return "max_iters"
	case FinishCancelled:
		return "cancelled"
	case FinishRejected:
		return "rejected"
	case FinishWorkerLost:
		return "worker_lost"
	default:
		return "unknown"
	}
}

// QueryFinish tells a worker to drop query Q's state and remember its scope
// for the monitoring window. It gets no reply: the scope sizes the window
// keeps came with Q's barrier reports.
type QueryFinish struct {
	Q      query.ID
	Reason FinishReason
}

// Type implements Message.
func (*QueryFinish) Type() MsgType { return TQueryFinish }

// GlobalStop initiates the STOP phase of the global barrier (Sec. 3.3).
// Live lists the live workers, the receiver included. A worker finishes the
// supersteps it holds, sends a StopMarker to every other live worker, and
// answers StopAck once it holds a marker of Epoch from each of them.
type GlobalStop struct {
	Epoch int32
	Live  []partition.WorkerID
}

// Type implements Message.
func (*GlobalStop) Type() MsgType { return TGlobalStop }

// MoveScope asks the receiving worker to move the local query scope
// LS(Q, w) — the vertices query Q touched on it — to worker To (paper API
// move(LS(q,w), w, w')). Sent only inside a global barrier. The worker
// ships the vertices' query data to To in one ScopeData message, empty if
// the scope is, and To acknowledges the move with MoveAck.
type MoveScope struct {
	Epoch int32
	Q     query.ID
	To    partition.WorkerID
}

// Type implements Message.
func (*MoveScope) Type() MsgType { return TMoveScope }

// OwnershipUpdate broadcasts vertex ownership changes resulting from the
// moves of one global barrier. Workers apply it before GlobalStart.
type OwnershipUpdate struct {
	Epoch    int32
	Vertices []graph.VertexID
	Owners   []partition.WorkerID // parallel to Vertices
}

// Type implements Message.
func (*OwnershipUpdate) Type() MsgType { return TOwnershipUpdate }

// GlobalStart ends the global barrier; queries resume.
type GlobalStart struct {
	Epoch int32
}

// Type implements Message.
func (*GlobalStart) Type() MsgType { return TGlobalStart }

// Shutdown terminates a worker.
type Shutdown struct{}

// Type implements Message.
func (*Shutdown) Type() MsgType { return TShutdown }

// StatsPull asks a worker for the intersection statistics of its monitoring
// window (Sec. 3.4); the worker answers StatsReport with the same Seq. The
// controller pulls them only when Q-cut is about to read them.
type StatsPull struct {
	Seq int64
}

// Type implements Message.
func (*StatsPull) Type() MsgType { return TStatsPull }

// ---------------------------------------------------------------------------
// Worker → controller

// WindowQueries caps the monitoring window (Sec. 3.4; paper: 128): the
// finished queries Q-cut sees, and those a worker's StatsReport pairs up.
const WindowQueries = 128

// DefaultMu is the monitoring window's age bound μ (Sec. 3.4; paper: 240 s):
// the controller keeps no finished query older than it, and a worker
// remembers none.
const DefaultMu = 240 * time.Second

// SigShift is the scope-signature block size exponent: vertices v and v'
// share a block iff v>>SigShift == v'>>SigShift. Road-network vertex ids
// are row-major, so a block is a spatially contiguous strip: 8 vertices,
// 4 km of a BW row. Workers summarise a query's scope as the blocks it
// touched; the serving cache evicts an answer when a commit changes the
// out-edges of a vertex in one, and Q-cut's intersection estimates are
// sums over shared blocks. Finer blocks evict fewer answers a commit cannot
// change and estimate overlaps more closely, at a cost per block in the
// scope bookkeeping; 8 was chosen by a sweep of 64, 32, 16 and 8 on the
// benchmark's workloads. Nodes built with different values are refused at
// the TCP handshake (transport.CodecVersion), since they would disagree on
// what a block id means.
const SigShift = 3

// BlockOf returns the signature block of vertex v.
func BlockOf(v graph.VertexID) int32 { return int32(v) >> SigShift }

// IntersectionStat reports |LS(Q1,w) ∩ LS(Q2,w)|: the paper's intersection
// function Iw restricted to query pairs, which is what Q-cut's clustering
// consumes.
type IntersectionStat struct {
	Q1, Q2 query.ID
	Shared int32
}

// BarrierSynch reports that worker W finished query Q's superstep Step
// (paper API barrierSynch(q,w)), with the scope size |LS(q,w)| of the
// monitoring statistics piggybacked (Sec. 3.4); Iw is pulled separately
// (StatsPull). NewBlocks lists the signature blocks Q's scope entered on W
// since W's previous report; their union over all reports is the block set
// of the scope, which the result travels with.
//
// FromStep < Step when the report covers a run of one worker, whose
// supersteps ran with no controller round trip; LocalIters counts them.
type BarrierSynch struct {
	Q          query.ID
	W          partition.WorkerID
	Step       int32 // last completed superstep
	FromStep   int32 // first superstep covered by this report
	LocalIters int32

	Processed   int32   // active vertices computed in the covered steps (load signal)
	NActiveNext int32   // local activations pending for Step+1
	ComputeNS   int64   // wall time spent in compute for the covered steps
	ScopeSize   int32   // |LS(Q, W)|: vertices Q touched on W so far
	SentBatches []int32 // vertex batches sent during Step, by dest worker
	BestGoal    float64 // best goal value seen on W (query.NoResult if none)
	MinFrontier float64 // min over pending local msgs + values sent in Step
	NewBlocks   []int32 // scope blocks first touched on W in the covered steps

	// Intersections is always empty: workers report Iw in StatsReport. It
	// stays on the wire only for the benchmark's codec row. Finished is
	// always false and not on the wire: no report answers QueryFinish.
	// Both go once the benchmark stops naming them.
	Intersections []IntersectionStat
	Finished      bool
}

// Type implements Message.
func (*BarrierSynch) Type() MsgType { return TBarrierSynch }

// StopAck acknowledges GlobalStop: worker W computes nothing more until
// GlobalStart, and it holds every vertex batch any live worker sent it
// before the stop, because each link is FIFO and each peer's StopMarker
// followed its batches.
type StopAck struct {
	Epoch int32
	W     partition.WorkerID
}

// Type implements Message.
func (*StopAck) Type() MsgType { return TStopAck }

// MoveAck reports the vertices a MoveScope directive moved from From to To,
// so the controller can broadcast the ownership delta. To sends it once it
// absorbed the move's ScopeData, so when the last MoveAck arrives every
// moved vertex is in place.
type MoveAck struct {
	Epoch    int32
	Q        query.ID
	From, To partition.WorkerID
	Vertices []graph.VertexID
}

// Type implements Message.
func (*MoveAck) Type() MsgType { return TMoveAck }

// StatsReport answers StatsPull Seq with worker W's estimates of the pairs
// its monitoring window holds: each windowed query against those that
// finished before it, then against the live queries in ascending id. Q1 is
// the windowed query; each pair appears at most once.
type StatsReport struct {
	Seq   int64
	W     partition.WorkerID
	Pairs []IntersectionStat
}

// Type implements Message.
func (*StatsReport) Type() MsgType { return TStatsReport }

// ---------------------------------------------------------------------------
// Worker ↔ worker

// VertexMsg is one vertex-to-vertex message.
type VertexMsg struct {
	To  graph.VertexID
	Val float64
}

// VertexBatch carries vertex messages of query Q emitted during superstep
// Step from worker From, to be consumed in superstep Step+1. A superstep
// sends one batch per query and peer, split only at 32 KiB (2 730 messages);
// the paper batches 32 messages (Sec. 4.1(iv)). Gen is the sender's
// recovery generation: receivers drop batches from another generation,
// whose queries recovery restarted (see RecoverStart).
//
// Summary, set on the last batch of a superstep of an implicitly
// continuable release (BarrierReady.Peers), is the sender's StepSummary of
// Step; links are FIFO, so it arrives after every batch it counts. A peer
// the step sent no entries gets an empty batch carrying it, a marker, which
// no Expect counts.
type VertexBatch struct {
	Q       query.ID
	Step    int32
	From    partition.WorkerID
	Gen     int32
	Entries []VertexMsg
	Summary *StepSummary
}

// Marker says whether m is an end-of-step marker: a summary with no entries.
func (m *VertexBatch) Marker() bool { return m.Summary != nil && len(m.Entries) == 0 }

// Type implements Message.
func (*VertexBatch) Type() MsgType { return TVertexBatch }

// QueryValue is a (query, value) pair of a moved vertex.
type QueryValue struct {
	Q   query.ID
	Val float64
}

// PendingMsg is an undelivered inbox entry of a moved vertex.
type PendingMsg struct {
	Q    query.ID
	Step int32
	Val  float64
}

// MovedVertex is the full migratable state of one vertex: its value under
// every live query that touched it, pending inbox entries, and the ids of
// finished queries whose remembered scopes contain it (so future move
// directives for those historical hotspots keep working).
type MovedVertex struct {
	V        graph.VertexID
	Values   []QueryValue
	Pending  []PendingMsg
	Finished []query.ID
}

// StopMarker is the marker of the global barrier's flush: on GlobalStop, a
// worker sends one to every other live worker, on the link its vertex
// batches use, after the last batch it will send before GlobalStart. A
// marker may arrive before the receiver's own GlobalStop; it counts for
// Epoch, and epochs never repeat.
type StopMarker struct {
	Epoch int32
}

// Type implements Message.
func (*StopMarker) Type() MsgType { return TStopMarker }

// ScopeData carries the state of vertices moved by a MoveScope directive.
// Sent worker→worker during a global barrier, after every StopAck, so the
// vertex batches before the barrier have all arrived. Gen fences recovery
// generations exactly as on VertexBatch.
type ScopeData struct {
	Epoch    int32
	Q        query.ID
	From     partition.WorkerID
	Gen      int32
	Vertices []MovedVertex
}

// Type implements Message.
func (*ScopeData) Type() MsgType { return TScopeData }

// ---------------------------------------------------------------------------
// Streaming graph updates (internal/delta)

// DeltaBatch commits one batch of graph mutations as graph version
// Version. It is broadcast off-barrier, once the batch is durable and
// applied on the controller; every worker applies it whole between
// supersteps, and running queries read the versions they pinned, so no
// query ever observes a half-applied batch. NewOwners assigns an owner to
// each vertex the batch adds (in op order); every node extends its
// ownership table identically.
type DeltaBatch struct {
	Version   uint64
	Ops       []delta.Op
	NewOwners []partition.WorkerID
}

// Type implements Message.
func (*DeltaBatch) Type() MsgType { return TDeltaBatch }

// DeltaAck confirms a worker applied DeltaBatch Version. No commit waits
// for it; it feeds the controller's replication-lag accounting.
type DeltaAck struct {
	Version uint64
	W       partition.WorkerID
}

// Type implements Message.
func (*DeltaAck) Type() MsgType { return TDeltaAck }

// ---------------------------------------------------------------------------
// Liveness

// Ping is the controller's heartbeat probe; workers answer with Pong
// carrying the same sequence number. Workers drain their inbox between
// supersteps, so only a dead or wedged worker stays silent.
type Ping struct {
	Seq int64
}

// Type implements Message.
func (*Ping) Type() MsgType { return TPing }

// Pong answers a Ping.
type Pong struct {
	Seq int64
	W   partition.WorkerID
}

// Type implements Message.
func (*Pong) Type() MsgType { return TPong }

// ---------------------------------------------------------------------------
// Worker failure recovery (internal/controller/recover.go)
//
// When liveness declares a worker dead, the controller fences it and runs a
// recovery round: survivors receive RecoverStart (reset in-flight query
// state, abandon a global barrier in progress, adopt the authoritative
// ownership map), a respawned worker announces itself with WorkerHello and
// receives PartitionGrant (the same reset plus a committed-op replay that
// rebuilds its graph view from the shared CSR base). Both answer
// PartitionAck; once every live worker acknowledged the generation, the
// controller restarts the in-flight queries from superstep 0.

// RecoverStart resets a surviving worker into recovery generation Gen:
// drop all live query state (affected queries are re-executed) and the
// StopAck a global barrier still waits to send, adopt Owner as the full
// authoritative ownership map. Version is the committed graph version;
// a replica at any other version has diverged and stops. The worker
// answers with PartitionAck.
type RecoverStart struct {
	Gen     int32
	Version uint64 // committed graph version the replica must be at
	Owner   []partition.WorkerID
}

// Type implements Message.
func (*RecoverStart) Type() MsgType { return TRecoverStart }

// PartitionGrant admits a (re)spawned worker into the live set at
// generation Gen: it rebuilds its graph view by replaying Batches over the
// graph at BaseVersion up to committed Version, adopts Owner, and answers
// with PartitionAck. BaseVersion 0 replays over the shared base graph;
// a non-zero BaseVersion names a checkpoint (internal/snapshot) the worker
// must resolve locally — the controller truncates its committed-op log at
// every checkpoint, so only the tail since the newest one ever crosses the
// wire. Until the grant arrives, a rejoining worker ignores every other
// message — stale traffic addressed to its dead predecessor.
type PartitionGrant struct {
	Gen         int32
	Version     uint64
	BaseVersion uint64
	Owner       []partition.WorkerID
	Batches     []delta.LogBatch
}

// Type implements Message.
func (*PartitionGrant) Type() MsgType { return TPartitionGrant }

// WorkerHello announces a (re)spawned worker to the controller; the
// controller answers with PartitionGrant when it admits the worker back.
type WorkerHello struct {
	W partition.WorkerID
}

// Type implements Message.
func (*WorkerHello) Type() MsgType { return TWorkerHello }

// PartitionAck acknowledges RecoverStart or PartitionGrant: worker W is
// settled in recovery generation Gen at graph Version. The controller
// treats a version mismatch as replica divergence (fatal).
type PartitionAck struct {
	Gen     int32
	W       partition.WorkerID
	Version uint64
}

// Type implements Message.
func (*PartitionAck) Type() MsgType { return TPartitionAck }
