// Package controller implements the Q-Graph controller layer (Fig. 2 of
// the paper): high-level, query-centric graph management with global
// knowledge. The controller schedules queries onto the workers, coordinates
// the hybrid barrier synchronization (per-query limited/local barriers plus
// the global STOP/START barrier, Sec. 3.3), maintains the monitoring window
// of query statistics (Sec. 3.4), and adapts the partitioning at runtime by
// running Q-cut asynchronously and executing its move directives under a
// global barrier.
//
// The controller is a single event loop; all state is confined to the Run
// goroutine.
package controller

import (
	"fmt"
	"sync/atomic"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/metrics"
	"qgraph/internal/obs"
	"qgraph/internal/obs/health"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	recovery "qgraph/internal/recover"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
	"qgraph/internal/wal"
)

// SyncMode selects the barrier synchronization strategy.
type SyncMode int

// The three synchronization strategies of the evaluation: the paper's
// hybrid barrier, the limited-only ablation, and the traditional BSP
// baseline of Fig. 6d where every query synchronizes across all workers
// every iteration.
const (
	SyncHybrid SyncMode = iota
	SyncLimited
	SyncGlobal
)

// String returns the mode name.
func (m SyncMode) String() string {
	switch m {
	case SyncHybrid:
		return "hybrid"
	case SyncLimited:
		return "limited"
	case SyncGlobal:
		return "global"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterises the controller.
type Config struct {
	K     int
	Graph *graph.Graph
	// Owner is the initial vertex assignment (the controller keeps its own
	// authoritative copy and evolves it through moves).
	Owner partition.Assignment
	Mode  SyncMode

	// Adapt enables the MAPE adaptivity loop (Q-cut at runtime).
	Adapt bool
	// Phi is the locality threshold Φ: average query locality below it
	// triggers repartitioning (default defaultPhi).
	Phi float64
	// Mu is the monitoring window μ: how long finished-query statistics
	// stay in the global view (default protocol.DefaultMu).
	Mu time.Duration
	// CheckEvery is the adaptivity check interval.
	CheckEvery time.Duration
	// Cooldown is the minimum time between repartitionings.
	Cooldown time.Duration
	// Seed feeds Q-cut's randomness.
	Seed uint64

	// CommitEvery is the maximum time staged graph mutations wait before
	// their batch is sealed (streaming updates, internal/delta).
	CommitEvery time.Duration
	// MaxBatchOps commits the staged batch early once it holds this many
	// operations.
	MaxBatchOps int
	// HeartbeatEvery is the worker liveness probe interval; negative
	// disables heartbeats (zero selects the default).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long a worker may stay silent before it is
	// declared dead and recovery begins: its partitions are handed to
	// survivors (or back to a respawned worker), and its in-flight queries
	// are re-executed from superstep 0.
	HeartbeatTimeout time.Duration
	// Respawn, when set, is invoked from the event loop each time a worker
	// is declared dead, to launch a replacement on the same node id. It
	// must not block (start the replacement asynchronously); the
	// replacement announces itself with WorkerHello. When nil, recovery
	// always hands the dead worker's partition to survivors.
	Respawn func(partition.WorkerID)

	// Snapshots receives checkpoints (internal/snapshot): cuts of the
	// committed graph that let the committed-op log be truncated and a
	// rejoining worker replay (checkpoint, tail) instead of (version 0,
	// full history). Nil creates a private in-memory store — note that
	// rejoining workers then need the same store to resolve checkpoints,
	// so multi-node deployments must share a disk-backed store.
	Snapshots *snapshot.Store
	// SnapshotPolicy arms automatic checkpointing; the zero policy leaves
	// only the manual trigger (ForceSnapshot / POST /admin/snapshot).
	SnapshotPolicy snapshot.Policy
	// BaseVersion is the committed version Graph already contains: a
	// deployment restarted from a checkpoint passes the checkpoint's graph
	// and version, and the log, graph version, and replay bases all start
	// there instead of 0.
	BaseVersion uint64
	// WAL, when set, is the durable write-ahead op log: every committed
	// batch is appended and fsynced before the commit acknowledges to its
	// caller, so a full process restart recovers to the exact pre-crash
	// version (snapshot.LoadLatest + WAL tail) instead of losing the ops
	// since the last checkpoint. The log must already be aligned with
	// BaseVersion — the caller replays the tail into Graph first
	// (wal.RecoverGraph) and rebases an empty log onto a checkpoint.
	WAL *wal.WAL
	// privateSnapshots marks a store fill() created because Snapshots was
	// nil: no worker can resolve its checkpoints, so cuts must never
	// truncate the log (a grant's BaseVersion past a private snapshot
	// would strand every future rejoiner).
	privateSnapshots bool

	// Recorder receives metrics; nil disables recording.
	Recorder *metrics.Recorder
	// Obs is the observability substrate (internal/obs): per-query span
	// trees continued from the serving layer (via query.Spec.TraceID),
	// barrier-phase / commit / WAL / snapshot instruments, structured
	// logging. Nil disables all of it at zero cost.
	Obs *obs.Obs
	// Monitor is the active health layer (internal/obs/health): the
	// controller feeds it per-worker compute times, stall ages, and
	// lifecycle events. Nil disables the watchdogs at the cost
	// of a nil check per signal.
	Monitor *health.Monitor
	// Clock abstracts time for tests; nil means time.Now.
	Clock func() time.Time
}

func (c *Config) fill() error {
	if c.K < 1 || c.K > partition.MaxWorkers {
		return fmt.Errorf("controller: bad worker count %d", c.K)
	}
	if c.Graph == nil {
		return fmt.Errorf("controller: nil graph")
	}
	if len(c.Owner) != c.Graph.NumVertices() {
		return fmt.Errorf("controller: ownership covers %d of %d vertices", len(c.Owner), c.Graph.NumVertices())
	}
	if c.Phi == 0 {
		c.Phi = defaultPhi
	}
	if c.Mu <= 0 {
		c.Mu = protocol.DefaultMu
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 250 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 250 * time.Millisecond
	}
	if c.MaxBatchOps <= 0 {
		c.MaxBatchOps = 4096
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.Snapshots == nil {
		c.Snapshots = snapshot.NewStore("", 0)
		c.privateSnapshots = true
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// Result is the outcome of one query delivered to its scheduler.
type Result struct {
	Q          query.ID
	Value      float64 // best goal value (query.NoResult if none)
	Reason     protocol.FinishReason
	Supersteps int
	LocalIters int
	Touched    int // |GS(q)| — global scope size
	Workers    int // workers the query ever involved
	Latency    time.Duration
	// Version is the committed graph version the answer was computed at
	// (the query's pin) — not whatever is committed when it is delivered.
	Version uint64
	// Blocks is the scope as sorted signature blocks (protocol.SigShift):
	// every vertex whose out-edges the execution read lies in one of them,
	// so the answer holds at any later version whose batches change no
	// out-edge of a vertex in these blocks (see OnCommit).
	Blocks []int32
}

// qctl is the controller-side state of one active query.
type qctl struct {
	spec    query.Spec
	prog    query.Program
	started time.Time
	ch      chan<- Result

	step        int32     // last fully collected superstep (-1 before step 0)
	outstanding bool      // a release was issued; reports pending
	releasedAt  time.Time // when the outstanding release was issued (stall watchdog)
	involved    map[partition.WorkerID]bool
	reports     map[partition.WorkerID]*protocol.BarrierSynch

	scopeSizes []int64 // latest |LS(q,w)| per worker
	everActive []bool  // workers that ever processed or held scope
	blocks     []int32 // every worker's BarrierSynch.NewBlocks so far, unsorted
	bestGoal   float64
	stepsDone  int
	localSteps int
	// cancelled marks a query whose caller abandoned it (Cancel) while a
	// global barrier was executing; it is honored at resume (cancels
	// outside the barrier phases finish the query eagerly instead).
	cancelled bool

	// Tracing (internal/obs): trace is the span tree the serving layer
	// bound to this query ID before scheduling (nil when untraced);
	// engSpan covers the controller-side execution, stepSpan the
	// superstep currently released.
	trace    *obs.Trace
	engSpan  *obs.Span
	stepSpan *obs.Span
}

type phase int

const (
	phaseRun phase = iota
	phaseQuiesce
	phaseStopping
	phaseMoving
	phaseRecover
)

// scheduleReq is the internal request carrying a user's scheduleQuery call
// — or, with cancel set, a Cancel for the id in spec.ID. Both flow through
// one FIFO channel so a cancel issued after Schedule returned can never
// overtake its schedule in the event loop.
type scheduleReq struct {
	spec   query.Spec
	ch     chan<- Result
	cancel bool
}

// snapshotReq asks the controller for its current Q-cut input (used by the
// Q-cut ablations and the benchmark's planning row).
type snapshotReq struct {
	ch chan qcut.Input
}

// statsPull is a StatsPull in flight: the live workers yet to answer, the
// pairs each answer brought, and who reads the Q-cut input it completes —
// onTick's plan, QcutSnapshot callers, or both.
type statsPull struct {
	seq     int64
	waiting map[partition.WorkerID]bool
	pairs   [][]protocol.IntersectionStat // by worker
	plan    bool
	readers []chan qcut.Input
}

// MutationResult reports the outcome of one Mutate call after its batch
// committed: the graph version the ops landed in, how many applied, and
// how many were no-ops (remove/set_weight of a non-existent edge).
type MutationResult struct {
	Version uint64
	Applied int
	NoOps   int
	Err     error
}

// mutateReq carries one client mutation batch into the event loop.
type mutateReq struct {
	ops []delta.Op
	ch  chan<- MutationResult
}

// pendingMut tracks one client batch staged for the next commit; n is its
// op count (for splitting the commit's per-op statuses back per caller).
type pendingMut struct {
	n  int
	ch chan<- MutationResult
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

// Controller is the controller-layer event loop.
type Controller struct {
	cfg  Config
	conn transport.Conn

	owner     partition.Assignment
	vertCount []int64

	queries map[query.ID]*qctl
	window  []*windowEntry
	byQ     map[query.ID]*windowEntry

	phase phase
	// phaseStart is when the current barrier phase was entered; enterPhase
	// charges the elapsed time to the phase histogram and to every traced
	// in-flight query on each transition.
	phaseStart   time.Time
	obs          *ctlObs
	epoch        int32
	acksLeft     int // StopAcks (stopping) or MoveAcks (moving) still due
	pendingMoves []qcut.Move
	ownDeltaV    []graph.VertexID
	ownDeltaW    []partition.WorkerID
	deferred     []scheduleReq

	// Streaming graph updates (internal/delta). curView is the committed
	// graph: stored only by the event loop (one whole batch at a time),
	// loaded by it and by concurrent readers (Schedule validation, the
	// serving layer). Its Version() is the committed graph version.
	curView     atomic.Pointer[delta.View]
	onCommit    atomic.Pointer[func(version uint64, blocks []int32)]
	pendingOps  []delta.Op
	pendingMuts []pendingMut
	pendingNewV int // AddVertex ops staged (range validation)
	firstOpAt   time.Time
	// Off-barrier commit state. pins counts the active queries pinned at
	// each committed version (every entry of queries holds exactly one pin,
	// taken by pin and released by unpin); mvcc publishes the numbers
	// derived from it for concurrent readers, the way health does. sealed
	// is the FIFO of batches sealed — version assigned, enqueued to the WAL
	// group committer — but not yet durable+applied; sealedHead is the last
	// sealed version (applies trail it by len(sealed)). walAckCh delivers
	// group-commit completions into the event loop; durableQ buffers
	// completions that land mid-recovery (applying would move the version
	// under the round's PartitionAck equality check), drained at resume.
	// ackVersion tracks each worker's last DeltaAck for replication-lag
	// accounting.
	pins            map[uint64]int
	mvcc            atomic.Pointer[MVCCStats]
	sealed          []*sealedBatch
	sealedHead      uint64
	walAckCh        chan wal.AppendAck
	durableQ        []wal.AppendAck
	sealedInFlight  atomic.Int64
	minAckedVersion atomic.Uint64
	ackVersion      []uint64

	// Worker liveness. missedPings[w] counts heartbeat probes since w's
	// last answer; past the limit the worker is declared dead and a
	// recovery episode starts (internal/recover). deadWorkers holds the
	// fenced set: messages from these workers are dropped until a
	// WorkerHello readmits them via PartitionGrant.
	lastPingAt  time.Time
	pingSeq     int64
	missedPings []int
	deadWorkers map[partition.WorkerID]bool
	health      atomic.Pointer[Health]

	// Worker failure recovery (internal/recover). deltaLog retains every
	// committed batch so a respawned worker can rebuild its view by
	// replay. terminal marks the unrecoverable state (no live workers).
	rec        recovery.Tracker
	recCtr     recovery.Counters
	recState   recoverState
	recovering bool
	terminal   bool
	// restartQueries tells resume() to re-execute every active query from
	// superstep 0 (their pre-recovery state died with the worker).
	restartQueries bool
	// epDied collects the workers that died during the current episode,
	// for the handoff/rejoin accounting when it completes.
	epDied   map[partition.WorkerID]bool
	deltaLog delta.Log

	// Checkpointing (internal/snapshot). The committed view is folded into
	// a versioned snapshot — by policy at commit time, or on demand — and
	// the log truncated to the ops newer than the durable checkpoint, so
	// recovery and restart replay O(recent) instead of O(history).
	// snapOps/snapBytes accumulate committed log growth since the last
	// cut; the atomic log mirrors serve concurrent /stats readers.
	//
	// Cuts run OFF the commit path: a commit only pins the
	// immutable committed view (O(1)) and a background cutter goroutine
	// materializes and persists it, reporting back through cutCh so the
	// event loop truncates the delta log and WAL — the O(V+E) fold never
	// stalls a commit. At most one cut is in flight; triggers and manual
	// requests arriving meanwhile queue one follow-up cut.
	snapOps         int
	snapBytes       int64
	lastSnapAt      time.Time
	lastSnapVersion uint64
	logLen          atomic.Int64
	logOps          atomic.Int64
	logBytes        atomic.Int64
	cutCh           chan cutDone
	cutInFlight     bool
	cutAgain        bool
	cutWaiters      []chan snapshot.Result
	nextCutWaiters  []chan snapshot.Result
	// Abort rollback state: what the policy accounting looked like when
	// the in-flight cut pinned its view.
	cutPrevVersion uint64
	cutPrevAt      time.Time
	cutPinnedOps   int
	cutPinnedBytes int64
	lastCutNanos   atomic.Int64
	// lastCutUnixNS mirrors the completion wall time of the newest durable
	// cut for concurrent readers (/healthz lag, /metrics); 0 before the
	// first cut.
	lastCutUnixNS atomic.Int64

	// qcutRunning covers a plan from the pull of its statistics to Q-cut's
	// result; pull is the pull in flight (nil when none), pullSeq the last
	// pull's sequence number.
	qcutRunning bool
	pull        *statsPull
	pullSeq     int64
	qcutCh      chan qcut.Result
	lastRepart  time.Time
	// Repartitions counts executed global barriers (scope moves, recovery).
	repartitions int
	// repartEpoch mirrors repartitions atomically so concurrent readers
	// (/healthz, /stats) can observe partition changes while Run is live.
	repartEpoch atomic.Int64
	// Trigger backoff: when repartitioning stops improving locality
	// (e.g. the workload inherently spans workers), the effective cooldown
	// doubles up to 16× so global barriers do not thrash the very queries
	// they are meant to help. Any improvement resets it. planExecuted says
	// a Q-cut plan's barrier has run, so trigLocality is a locality that
	// plan was meant to raise.
	curCooldown  time.Duration
	trigLocality float64
	planExecuted bool

	scheduleCh   chan scheduleReq
	snapshotCh   chan snapshotReq
	checkpointCh chan checkpointReq
	mutateCh     chan mutateReq
	stopCh       chan struct{}
	doneCh       chan struct{}
	runErr       error
}

// checkpointReq asks the event loop to cut a checkpoint now (the manual
// trigger behind POST /admin/snapshot).
type checkpointReq struct {
	ch chan snapshot.Result
}

// windowEntry is all the global view holds about a finished query; it is
// evicted as a whole. Its overlaps with other queries stay on the workers
// until a StatsPull asks for them.
type windowEntry struct {
	q        query.ID
	at       time.Time // completion (or last update) time
	sizes    []int64   // |LS(q,w)| per worker
	locality float64
}

// New creates a controller bound to conn.
func New(cfg Config, conn transport.Conn) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:          cfg,
		conn:         conn,
		owner:        cfg.Owner.Clone(),
		vertCount:    make([]int64, cfg.K),
		queries:      make(map[query.ID]*qctl),
		byQ:          make(map[query.ID]*windowEntry),
		pins:         make(map[uint64]int),
		sealedHead:   cfg.BaseVersion,
		walAckCh:     make(chan wal.AppendAck, 2*maxSealedInFlight),
		ackVersion:   make([]uint64, cfg.K),
		missedPings:  make([]int, cfg.K),
		deadWorkers:  make(map[partition.WorkerID]bool),
		epDied:       make(map[partition.WorkerID]bool),
		qcutCh:       make(chan qcut.Result, 1),
		cutCh:        make(chan cutDone, 1),
		scheduleCh:   make(chan scheduleReq, 64),
		snapshotCh:   make(chan snapshotReq),
		checkpointCh: make(chan checkpointReq),
		mutateCh:     make(chan mutateReq, 64),
		stopCh:       make(chan struct{}),
		doneCh:       make(chan struct{}),
	}
	for _, w := range cfg.Owner {
		c.vertCount[w]++
	}
	for w := range c.ackVersion {
		c.ackVersion[w] = cfg.BaseVersion
	}
	c.minAckedVersion.Store(cfg.BaseVersion)
	if err := c.deltaLog.Rebase(cfg.BaseVersion); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if cfg.WAL != nil && cfg.WAL.Head() != cfg.BaseVersion {
		// A WAL ahead of the base means its tail was never replayed into
		// Graph; behind means the caller skipped Rebase. Either way the
		// version chains would diverge on the first commit.
		return nil, fmt.Errorf("controller: wal head %d != base version %d (replay the tail and rebase before starting)",
			cfg.WAL.Head(), cfg.BaseVersion)
	}
	c.lastSnapVersion = cfg.BaseVersion
	c.lastSnapAt = cfg.Clock()
	c.phaseStart = cfg.Clock()
	c.curView.Store(delta.NewViewAt(cfg.Graph, cfg.BaseVersion))
	c.publishMVCC()
	c.health.Store(&Health{})
	c.obs = newCtlObs(c)
	return c, nil
}

// Schedule submits a query (paper API scheduleQuery(q)); the result is
// delivered on the returned channel. It is safe to call from any goroutine
// while Run is active.
func (c *Controller) Schedule(spec query.Spec) (<-chan Result, error) {
	// Validate against the current committed view: streaming updates may
	// have grown the graph past the base the controller was built with.
	if err := spec.Validate(c.curView.Load()); err != nil {
		return nil, err
	}
	select {
	case <-c.doneCh:
		return nil, fmt.Errorf("controller: stopped")
	default:
	}
	ch := make(chan Result, 1)
	select {
	case c.scheduleCh <- scheduleReq{spec: spec, ch: ch}:
		return ch, nil
	case <-c.doneCh:
		return nil, fmt.Errorf("controller: stopped")
	}
}

// Cancel requests that query q be abandoned: if it is still queued the
// caller gets an immediate FinishCancelled result; if it is executing, the
// controller finishes it with FinishCancelled and tells the workers to
// drop its state. Cancelling an unknown or already-finished query is a
// no-op. Cancels share the schedule FIFO, so a Cancel issued after its
// Schedule returned is always processed after the query started. Safe
// from any goroutine while Run is active.
func (c *Controller) Cancel(q query.ID) {
	select {
	case c.scheduleCh <- scheduleReq{spec: query.Spec{ID: q}, cancel: true}:
	case <-c.doneCh:
	}
}

// Mutate stages one batch of graph mutations for the next commit and
// returns a channel that delivers the MutationResult once the batch
// committed (or failed). Multiple Mutate calls may be folded into one
// commit; each caller still gets its own per-op accounting. Safe from any
// goroutine while Run is active.
func (c *Controller) Mutate(ops []delta.Op) (<-chan MutationResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("controller: empty mutation batch")
	}
	ch := make(chan MutationResult, 1)
	select {
	case c.mutateCh <- mutateReq{ops: ops, ch: ch}:
		return ch, nil
	case <-c.doneCh:
		return nil, fmt.Errorf("controller: stopped")
	}
}

// GraphVersion returns the number of committed mutation batches as a
// monotone graph version. Safe to call concurrently with Run.
func (c *Controller) GraphVersion() uint64 { return c.curView.Load().Version() }

// OnCommit registers the one subscriber to commits (a later call replaces
// it): the event loop calls fn for every batch, in version order, just
// before GraphVersion starts reporting that version, with the sorted
// signature blocks of the vertices whose out-edges the batch changes. That
// is all a batch can change about an answer — every vertex function reads
// only the out-edges and tag of the vertex it runs on — so the serving cache
// evicts by it (Result.Blocks). fn must not block. Safe from any goroutine.
func (c *Controller) OnCommit(fn func(version uint64, blocks []int32)) { c.onCommit.Store(&fn) }

// GraphView returns the current committed graph view (a consistent
// snapshot; later commits do not mutate it). Safe to call concurrently
// with Run.
func (c *Controller) GraphView() graph.View { return c.curView.Load() }

// Health reports worker liveness. Safe to call concurrently with Run.
func (c *Controller) Health() Health { return *c.health.Load() }

// RecoveryStats reports the worker-failure recovery counters. Safe to
// call concurrently with Run; the serving layer surfaces it in /stats.
func (c *Controller) RecoveryStats() recovery.Stats { return c.recCtr.Snapshot() }

// ForceSnapshot cuts a checkpoint of the committed graph now (the manual
// trigger behind POST /admin/snapshot) and truncates the committed-op log
// to the ops newer than the durable checkpoint. The fold runs on the
// background cutter; this call blocks until it (and the truncation)
// completed, but the event loop — and every commit — keeps
// running meanwhile. Safe from any goroutine while Run is active. A
// Result with Cut=false means the current version was already
// checkpointed (or the cut was aborted by fault injection).
func (c *Controller) ForceSnapshot() (snapshot.Result, error) {
	req := checkpointReq{ch: make(chan snapshot.Result, 1)}
	select {
	case c.checkpointCh <- req:
	case <-c.doneCh:
		return snapshot.Result{}, fmt.Errorf("controller: stopped")
	}
	select {
	case res := <-req.ch:
		return res, nil
	case <-c.doneCh:
		return snapshot.Result{}, fmt.Errorf("controller: stopped")
	}
}

// SnapshotStats reports the checkpointing counters and the live size of
// the committed-op log. Safe to call concurrently with Run; the serving
// layer surfaces it in /stats.
func (c *Controller) SnapshotStats() snapshot.Stats {
	st := c.cfg.Snapshots.Stats()
	st.DeltaLogLen = int(c.logLen.Load())
	st.DeltaLogOps = int(c.logOps.Load())
	st.DeltaLogBytes = c.logBytes.Load()
	st.LastCutMS = float64(c.lastCutNanos.Load()) / float64(time.Millisecond)
	st.LastCutUnixNS = c.lastCutUnixNS.Load()
	return st
}

// WALStats reports the durable write-ahead log's accounting (a zero-value
// Stats with Enabled=false when no WAL is configured). Safe to call
// concurrently with Run; the serving layer surfaces it in /stats.
func (c *Controller) WALStats() wal.Stats {
	if c.cfg.WAL == nil {
		return wal.Stats{}
	}
	return c.cfg.WAL.Stats()
}

// MVCCStats describes the multi-version state of the commit pipeline:
// which committed versions still have a reader (a query holds a pointer
// to its version's immutable view; a version no query holds and that is
// not the latest is garbage), how many sealed batches are in flight
// between the event loop and the WAL group committer, and how far the
// slowest worker replica trails the committed version.
type MVCCStats struct {
	Live         int    `json:"live_versions"`  // the latest version plus every older one still pinned
	Pinned       int    `json:"pinned_readers"` // active queries, each pinned at one version
	Latest       uint64 `json:"latest_version"`
	OldestPinned uint64 `json:"oldest_pinned"`    // meaningful only while Pinned > 0
	Retired      uint64 `json:"retired_versions"` // versions committed since start that are no longer live
	Peak         int    `json:"peak_live_versions"`
	// SealedInFlight is the number of batches sealed (version assigned,
	// queued for group fsync) but not yet applied.
	SealedInFlight int64 `json:"sealed_in_flight"`
	// MaxWorkerLag is committed version minus the slowest live worker's
	// last-acknowledged version.
	MaxWorkerLag uint64 `json:"max_worker_lag"`
}

// MVCCStats reports the commit pipeline's multi-version accounting. Safe
// to call concurrently with Run; the serving layer surfaces it in /stats.
func (c *Controller) MVCCStats() MVCCStats {
	st := *c.mvcc.Load()
	st.SealedInFlight = c.sealedInFlight.Load()
	if v, acked := c.GraphVersion(), c.minAckedVersion.Load(); v > acked {
		st.MaxWorkerLag = v - acked
	}
	return st
}

// pin points ctl at the committed version: the one every worker replica
// is at when the ExecuteQuery that follows reaches it (per-link FIFO), and
// whose immutable view the query keeps reading while later batches commit.
func (c *Controller) pin(ctl *qctl) {
	ctl.spec.PinVersion = c.GraphVersion()
	c.pins[ctl.spec.PinVersion]++
	c.publishMVCC()
}

// unpin releases ctl's version; a recovery restart pins again right after.
func (c *Controller) unpin(ctl *qctl) {
	v := ctl.spec.PinVersion
	if c.pins[v]--; c.pins[v] == 0 {
		delete(c.pins, v)
	}
	c.publishMVCC()
}

// forget is the one exit of an active query, whatever ended it.
func (c *Controller) forget(ctl *qctl) {
	delete(c.queries, ctl.spec.ID)
	c.unpin(ctl)
}

// publishMVCC snapshots the pin counts for concurrent readers; called on
// every pin, unpin and commit. Everything is derived: a version is live
// while it is the latest or pinned, and every other version committed
// since BaseVersion is retired.
func (c *Controller) publishMVCC() {
	st := &MVCCStats{Latest: c.GraphVersion(), Live: len(c.pins)}
	if c.pins[st.Latest] == 0 {
		st.Live++
	}
	oldest := st.Latest // no pin is newer than the committed version
	for v, n := range c.pins {
		st.Pinned += n
		oldest = min(oldest, v)
	}
	if st.Pinned > 0 {
		st.OldestPinned = oldest
	}
	st.Retired = st.Latest - c.cfg.BaseVersion + 1 - uint64(st.Live)
	st.Peak = st.Live
	if prev := c.mvcc.Load(); prev != nil {
		st.Peak = max(prev.Peak, st.Live)
	}
	c.mvcc.Store(st)
}

// QcutSnapshot returns the controller's current high-level view as a Q-cut
// input (the Q-cut ablations, the benchmark's planning row, debugging). It
// pulls the workers' intersection statistics, so it returns once every live
// worker answered, or with an error once the controller stopped.
func (c *Controller) QcutSnapshot() (qcut.Input, error) {
	req := snapshotReq{ch: make(chan qcut.Input, 1)}
	select {
	case c.snapshotCh <- req:
	case <-c.doneCh:
		return qcut.Input{}, fmt.Errorf("controller: stopped")
	}
	select {
	case in := <-req.ch:
		return in, nil
	case <-c.doneCh:
		return qcut.Input{}, fmt.Errorf("controller: stopped")
	}
}

// Stop shuts the controller and all workers down. Blocks until Run
// returned.
func (c *Controller) Stop() {
	select {
	case <-c.stopCh:
	default:
		close(c.stopCh)
	}
	<-c.doneCh
}

// Repartitions returns the number of executed repartitioning barriers.
// Valid after Run returned.
func (c *Controller) Repartitions() int { return c.repartitions }

// RepartitionEpoch returns the number of executed repartitioning barriers
// as a monotone epoch. Unlike Repartitions it is safe to call concurrently
// with Run.
func (c *Controller) RepartitionEpoch() int64 { return c.repartEpoch.Load() }

// Run processes events until Stop is called. It returns the first fatal
// protocol error, if any.
func (c *Controller) Run() error {
	defer func() {
		// Order matters: close doneCh first so no new Schedule or Mutate
		// can enqueue, then fail requests that raced in before the close.
		close(c.doneCh)
		for {
			select {
			case req := <-c.scheduleCh:
				if req.ch != nil { // cancel requests carry no channel
					req.ch <- Result{Q: req.spec.ID, Value: query.NoResult, Reason: protocol.FinishCancelled}
				}
			case req := <-c.mutateCh:
				req.ch <- MutationResult{Err: fmt.Errorf("controller: stopped")}
			default:
				return
			}
		}
	}()
	ticker := time.NewTicker(c.cfg.CheckEvery)
	defer ticker.Stop()
	inbox := c.conn.Inbox()
	for {
		select {
		case <-c.stopCh:
			c.broadcastAll(&protocol.Shutdown{})
			c.failActive()
			return c.runErr
		case req := <-c.scheduleCh:
			if req.cancel {
				c.onCancel(req.spec.ID)
			} else {
				c.onSchedule(req)
			}
		case req := <-c.snapshotCh:
			c.pullStats(false, req.ch)
		case req := <-c.checkpointCh:
			c.requestCheckpoint(req.ch)
		case done := <-c.cutCh:
			c.onCutDone(done)
		case req := <-c.mutateCh:
			c.onMutate(req)
		case ack := <-c.walAckCh:
			if err := c.onWalAck(ack); err != nil {
				c.runErr = err
				c.broadcastAll(&protocol.Shutdown{})
				c.failActive()
				return err
			}
		case res := <-c.qcutCh:
			c.onQcutDone(res)
		case <-ticker.C:
			c.onTick()
		case env, ok := <-inbox:
			if !ok {
				return c.runErr
			}
			if err := c.handle(env); err != nil {
				c.runErr = err
				c.broadcastAll(&protocol.Shutdown{})
				c.failActive()
				return err
			}
		}
	}
}

// failActive delivers a cancelled result to every still-active or
// still-deferred query — and an error to every staged mutation — so
// callers never block on Stop.
func (c *Controller) failActive() {
	now := c.cfg.Clock()
	for q, ctl := range c.queries {
		ctl.ch <- Result{
			Q: q, Value: ctl.bestGoal, Reason: protocol.FinishCancelled,
			Supersteps: ctl.stepsDone, LocalIters: ctl.localSteps,
			Latency: now.Sub(ctl.started),
		}
		c.forget(ctl)
	}
	for _, req := range c.deferred {
		req.ch <- Result{Q: req.spec.ID, Value: query.NoResult, Reason: protocol.FinishCancelled}
	}
	c.deferred = nil
	stopped := fmt.Errorf("controller: stopped")
	c.failMutations(stopped, stopped)
}

// failMutations delivers errors to every staged (pendingErr) and sealed
// (commitErr) mutation batch. The two differ on worker death: staged ops
// never left the controller, while a sealed batch was enqueued to the WAL
// and may already be durable, just never acknowledged.
func (c *Controller) failMutations(pendingErr, commitErr error) {
	for _, pm := range c.pendingMuts {
		pm.ch <- MutationResult{Err: pendingErr}
	}
	for _, sb := range c.sealed {
		for _, pm := range sb.muts {
			pm.ch <- MutationResult{Err: commitErr}
		}
	}
	c.sealed, c.durableQ = nil, nil
	c.sealedInFlight.Store(0)
	c.pendingOps, c.pendingMuts, c.pendingNewV, c.firstOpAt = nil, nil, 0, time.Time{}
}

func (c *Controller) handle(env transport.Envelope) error {
	// Fence dead workers: a worker declared dead stays dead until a
	// WorkerHello readmits it, however falsely the declaration turned out —
	// its partition is being (or has been) reassigned, so any message it
	// still emits refers to state that no longer exists.
	if env.From != protocol.ControllerNode && c.deadWorkers[protocol.WorkerOf(env.From)] {
		if m, ok := env.Msg.(*protocol.WorkerHello); ok {
			c.onWorkerHello(m)
		}
		return nil
	}
	if c.phase == phaseRecover {
		// Mid-recovery only the recovery protocol, liveness and a pull of
		// statistics (which outlives a round) speak; every other message is
		// a pre-recovery straggler from a live worker — per-link FIFO
		// guarantees they all arrive before that worker's PartitionAck, so
		// dropping them here is exhaustive.
		switch m := env.Msg.(type) {
		case *protocol.PartitionAck:
			return c.onPartitionAck(m)
		case *protocol.WorkerHello:
			c.onWorkerHello(m)
			return nil
		case *protocol.Pong:
			c.onPong(m)
			return nil
		case *protocol.StatsReport:
			c.onStatsReport(m)
			return nil
		default:
			return nil
		}
	}
	switch m := env.Msg.(type) {
	case *protocol.BarrierSynch:
		return c.onSynch(m)
	case *protocol.StopAck:
		return c.onStopAck(m)
	case *protocol.MoveAck:
		return c.onMoveAck(m)
	case *protocol.DeltaAck:
		return c.onDeltaAck(m)
	case *protocol.StatsReport:
		c.onStatsReport(m)
		return nil
	case *protocol.Pong:
		c.onPong(m)
		return nil
	case *protocol.WorkerHello:
		c.onWorkerHello(m)
		return nil
	case *protocol.PartitionAck:
		// A straggler from a completed or aborted recovery round.
		return nil
	default:
		return fmt.Errorf("controller: unexpected message %T", env.Msg)
	}
}

// broadcast sends m to every live worker (dead workers are fenced; their
// successor is addressed only once readmitted).
func (c *Controller) broadcast(m protocol.Message) {
	for w := 0; w < c.cfg.K; w++ {
		if c.deadWorkers[partition.WorkerID(w)] {
			continue
		}
		c.conn.Send(protocol.WorkerNode(partition.WorkerID(w)), m)
	}
}

// broadcastAll sends m to every worker slot, dead or alive — shutdown
// must also reach a replacement that is still joining.
func (c *Controller) broadcastAll(m protocol.Message) {
	for w := 0; w < c.cfg.K; w++ {
		c.conn.Send(protocol.WorkerNode(partition.WorkerID(w)), m)
	}
}

// liveCount is the number of workers barriers and commits must hear from.
func (c *Controller) liveCount() int { return c.cfg.K - len(c.deadWorkers) }
