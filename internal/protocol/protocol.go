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
	"math/bits"
	"slices"
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
	_ // OwnershipUpdate, retired
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
	_ // DeltaAck, retired
	TPong
	// Worker failure recovery (appended to keep earlier wire values
	// stable).
	// controller → worker
	_ // RecoverStart, retired
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
// involved workers, sorted, the receiver included, and makes the release a
// run: after each superstep the peers take Rules.Decide over every peer's
// StepSummary, and while it continues over some of them (Decision.Runs),
// those release the next superstep themselves, as a run over the decision's
// Next, and the others go idle. A run of one is the local query barrier
// (Sec. 3.3): it decides on its own summary and reports once, when the run
// stops. In a run of several each peer sends the others its summary on its
// last VertexBatch of the step, and reports at the run's edges (see
// BarrierSynch). A global barrier waits for every run to stop.
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
// LS(Q, w) to worker To (paper API move(LS(q,w), w, w')): every vertex it
// owns in Q's signature blocks there, touched by Q or not. Sent only inside
// a global barrier. The worker ships the vertices' query data to To in one
// ScopeData message, empty if no vertex moves, and To acknowledges the move
// with MoveAck.
type MoveScope struct {
	Epoch int32
	Q     query.ID
	To    partition.WorkerID
}

// Type implements Message.
func (*MoveScope) Type() MsgType { return TMoveScope }

// GlobalStart ends the global barrier; queries resume. Vertices and Owners
// are the ownership changes of the barrier's moves, which workers apply
// first; one that ends a recovery round carries none, since the round's
// PartitionGrants replaced ownership wholesale.
type GlobalStart struct {
	Epoch    int32
	Vertices []graph.VertexID
	Owners   []partition.WorkerID // parallel to Vertices
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

// SortBlocks sorts block ids ascending and drops repeats, in place, and
// returns the prefix that holds them. Ids that span few words are set in a
// bitmap swept word by word, in O(n + span/64) and with no comparison;
// scratch is that bitmap, grown as needed and left zeroed, and nil
// allocates one. Ids spread wider than 16 words an id are sorted.
func SortBlocks(ids []int32, scratch *[]uint64) []int32 {
	if len(ids) < 2 {
		return ids
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo, hi = min(lo, id), max(hi, id)
	}
	words := (int64(hi)-int64(lo))>>6 + 1
	if words > 16*int64(len(ids)) {
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	if scratch == nil {
		scratch = new([]uint64)
	}
	if int64(len(*scratch)) < words {
		*scratch = make([]uint64, words)
	}
	set := (*scratch)[:words]
	for _, id := range ids {
		d := uint32(id - lo)
		set[d>>6] |= 1 << (d & 63)
	}
	out := ids[:0]
	for i, word := range set {
		set[i] = 0
		for ; word != 0; word &= word - 1 {
			out = append(out, lo+int32(i<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

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
// A report covers the supersteps FromStep to Step, every one since its
// worker's last report; Processed, ComputeNS and NewBlocks sum over them,
// and the rest describe Step. Outside a run a worker reports every
// superstep. A run of one reports once, when it stops. A worker of a run of
// several reports a superstep at once when its own summary leaves an end of
// the run possible: the run does not span every worker, the worker is
// quiescent (nothing pending, no batch sent), Step+1 reaches MaxIters, or a
// monotone program knows a goal. It defers the superstep otherwise, until
// the run's decision stops or narrows the run and makes every deferred
// superstep due in one report. The controller collects the earliest
// superstep at which every involved worker's reports end; a gap or an
// overlap between one worker's reports is a protocol error. LocalIters
// counts the local supersteps before Step: all of a run of one's, none of
// a run of several's, whose every peer computes every superstep.
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
// whose queries recovery restarted (see PartitionGrant).
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
// every live query that touched it and its pending inbox entries. What
// finished queries touched stays in their signatures on the sending worker.
type MovedVertex struct {
	V       graph.VertexID
	Values  []QueryValue
	Pending []PendingMsg
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
// query ever observes a half-applied batch. Nothing answers it: a replica
// that fell off the version chain is caught by the pin check of the next
// ExecuteQuery or by a recovery round's PartitionAck. NewOwners assigns an
// owner to each vertex the batch adds (in op order); every node extends its
// ownership table identically.
type DeltaBatch struct {
	Version   uint64
	Ops       []delta.Op
	NewOwners []partition.WorkerID
}

// Type implements Message.
func (*DeltaBatch) Type() MsgType { return TDeltaBatch }

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
// recovery round: every live worker receives PartitionGrant, which resets
// in-flight query state, abandons a global barrier in progress and adopts
// the authoritative ownership map. A respawned worker announces itself
// with WorkerHello, and its grant also carries a committed-op replay that
// rebuilds its graph view from the shared CSR base. Every worker answers
// PartitionAck; once every live worker acknowledged the generation, the
// controller restarts the in-flight queries from superstep 0.

// PartitionGrant resets a worker into recovery generation Gen: it drops
// all live query state (affected queries are re-executed) and the StopAck
// a global barrier still waits to send, adopts Owner as the full
// authoritative ownership map, and answers with PartitionAck. Version is
// the committed graph version; a survivor, whose grant carries no replay,
// has diverged at any other version and stops.
//
// Rejoin marks the grant that admits a (re)spawned worker: it rebuilds its
// graph view by replaying Batches over the graph at BaseVersion up to
// Version. BaseVersion 0 is the shared base graph; a non-zero one names a
// checkpoint (internal/snapshot) the worker must resolve locally — the
// controller truncates its committed-op log at every checkpoint, so only
// the tail since the newest one ever crosses the wire. Until a Rejoin grant
// arrives, a rejoining worker ignores every other message — stale traffic
// addressed to its dead predecessor, a survivor's grant included.
type PartitionGrant struct {
	Gen         int32
	Version     uint64
	Rejoin      bool
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

// PartitionAck acknowledges a PartitionGrant: worker W is settled in
// recovery generation Gen at graph Version. The controller treats a version
// mismatch as replica divergence (fatal).
type PartitionAck struct {
	Gen     int32
	W       partition.WorkerID
	Version uint64
}

// Type implements Message.
func (*PartitionAck) Type() MsgType { return TPartitionAck }
