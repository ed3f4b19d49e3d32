// Package controller implements the Q-Graph controller layer (Fig. 2 of
// the paper): high-level, query-centric graph management with global
// knowledge. The controller schedules queries onto the workers, coordinates
// the hybrid barrier synchronization (per-query limited/local barriers plus
// the global STOP/START barrier, Sec. 3.3), maintains the monitoring window
// of query statistics (Sec. 3.4), and adapts the partitioning at runtime by
// running Q-cut asynchronously and executing its move directives under a
// global barrier.
//
// Each query's side of the hybrid barrier is a round (barrier.go): the
// workers a superstep involves, the reports it awaits, and the decision
// (protocol.Rules.Decide) that ends the query or continues it, by a run
// whose workers release the next superstep themselves, as transitions with
// no I/O and no clock. The
// commit pipeline, from Mutate to the checkpoint cut, has the same shape
// (commits in delta.go and checkpoint.go), and so do worker liveness and
// recovery (members in recover.go) and adaptation with its global barrier
// (adapt in adapt.go and global.go). The controller sends what these four
// machines decide.
//
// The controller is one transition, step, over one event: a message, a WAL
// completion, a tick (the ticker's time), a caller's request or a job's
// report. Run is a pump that feeds it from the inbox, the WAL, a ticker and
// one FIFO queue of requests and job reports, and the only code that starts
// a goroutine: a transition hands background work (a Q-cut run, a
// checkpoint cut) to the pump as a job, a func returning the event that
// reports it. All state is confined to the goroutine that calls step; tests
// step it with no Run.
package controller

import (
	"errors"
	"fmt"
	"slices"
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
	// Blocks is the scope as sorted signature blocks (protocol.SigShift, 8
	// vertices each): every vertex whose out-edges the execution read lies
	// in one of them,
	// so the answer holds at any later version whose batches change no
	// out-edge of a vertex in these blocks (see OnCommit).
	Blocks []int32
}

// qctl is the controller-side state of one active query: its barrier
// round, and what the controller keeps beside it.
type qctl struct {
	spec    query.Spec
	started time.Time
	ch      chan<- Result
	round

	releasedAt time.Time // when the outstanding release was issued (stall watchdog)
	// cancelled marks a query whose caller abandoned it (Cancel) while a
	// global barrier or a recovery round was executing; it is honored at
	// resume (cancels outside those phases finish the query eagerly).
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

// scheduleReq is the internal request carrying a user's scheduleQuery call.
// A Cancel is a cancelReq; both ride the event queue, so a cancel issued
// after Schedule returned can never overtake its schedule.
type scheduleReq struct {
	spec query.Spec
	ch   chan<- Result
}

type cancelReq query.ID

// Controller is the controller-layer event loop.
type Controller struct {
	cfg  Config
	conn transport.Conn

	owner     partition.Assignment
	vertCount []int64

	queries map[query.ID]*qctl
	window  []*windowEntry
	byQ     map[query.ID]*windowEntry

	// Adaptation and the global barrier (adapt.go, global.go). phaseStart
	// is when the current phase was entered; leftPhase charges the elapsed
	// time to the phase histogram and to every traced in-flight query.
	// deferred holds the schedules a barrier or recovery round holds back,
	// readers the QcutSnapshot callers waiting for the pull in flight.
	adapt      adapt
	phaseStart time.Time
	obs        *ctlObs
	deferred   []scheduleReq
	readers    []chan qcut.Input
	// repartEpoch counts executed global barriers (scope moves, recovery);
	// concurrent readers (/healthz, /stats) load it while Run is live.
	repartEpoch atomic.Int64

	// Streaming graph updates (internal/delta). curView is the committed
	// graph: stored only by the event loop (one whole batch at a time),
	// loaded by it and by concurrent readers (Schedule validation, the
	// serving layer). commits is the pipeline from Mutate to the checkpoint
	// cut, fed group-commit completions by walAckCh. pins counts the
	// queries pinned at each version (each active query holds one).
	// Concurrent readers see the published mvcc and logStats (the op log
	// and the last cut), never the loop's fields.
	curView    atomic.Pointer[delta.View]
	onCommit   atomic.Pointer[func(version uint64, blocks []int32)]
	commits    commits
	walAckCh   chan wal.AppendAck
	pins       map[uint64]int
	ackVersion []uint64 // each worker's last DeltaAck (MVCCStats.MaxWorkerLag)
	mvcc       atomic.Pointer[MVCCStats]
	logStats   atomic.Pointer[snapshot.Stats]

	// Worker liveness and failure recovery (recover.go); concurrent
	// readers see the published health and recovery totals. deltaLog
	// retains every committed batch since the last checkpoint so a
	// respawned worker can rebuild its view by replay.
	members  members
	health   atomic.Pointer[Health]
	recovery atomic.Pointer[RecoveryStats]
	deltaLog delta.Log

	// events is the queue of callers' requests (a scheduleReq, a cancelReq,
	// a mutateReq, QcutSnapshot's chan qcut.Input, ForceSnapshot's chan
	// snapshot.Result) and of job reports (wrapped in done). Its buffer
	// absorbs a burst of requests between two turns of the loop; a full
	// queue blocks the caller, never the loop. jobs holds the background
	// work transitions handed out since the pump last took it.
	events chan any
	jobs   []job
	stopCh chan struct{}
	doneCh chan struct{}
}

// job is background work a transition hands to the pump instead of starting
// it: the pump runs it off the loop and steps the event it returns.
type job func() any

// done carries a job's report through the event queue, so Run knows when no
// job is left running.
type done struct{ ev any }

var errStopped = errors.New("controller: stopped")

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
		cfg:       cfg,
		conn:      conn,
		owner:     cfg.Owner.Clone(),
		vertCount: make([]int64, cfg.K),
		queries:   make(map[query.ID]*qctl),
		byQ:       make(map[query.ID]*windowEntry),
		commits: commits{
			maxBatchOps: cfg.MaxBatchOps, commitEvery: cfg.CommitEvery, policy: cfg.SnapshotPolicy,
			private: cfg.privateSnapshots, onDisk: cfg.Snapshots.Dir() != "",
			head: cfg.BaseVersion, lastSnapAt: cfg.Clock(), lastSnapVersion: cfg.BaseVersion,
		},
		walAckCh:   make(chan wal.AppendAck, 2*maxSealedInFlight),
		pins:       make(map[uint64]int),
		ackVersion: slices.Repeat([]uint64{cfg.BaseVersion}, cfg.K),
		members:    newMembers(&cfg),
		adapt:      newAdapt(&cfg),
		events:     make(chan any, 128),
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	for _, w := range cfg.Owner {
		c.vertCount[w]++
	}
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
	c.phaseStart = cfg.Clock()
	c.curView.Store(delta.NewViewAt(cfg.Graph, cfg.BaseVersion))
	c.publishMVCC()
	c.logStats.Store(&snapshot.Stats{}) // the rebased log is empty
	c.health.Store(&Health{})
	c.recovery.Store(&RecoveryStats{})
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
	ch := make(chan Result, 1)
	if !c.enqueue(scheduleReq{spec: spec, ch: ch}) {
		return nil, errStopped
	}
	return ch, nil
}

// enqueue puts a caller's request on the event queue; false means Run
// returned.
func (c *Controller) enqueue(ev any) bool {
	select {
	case <-c.doneCh:
		return false
	default:
	}
	select {
	case c.events <- ev:
		return true
	case <-c.doneCh:
		return false
	}
}

// Cancel requests that query q be abandoned: if it is still queued the
// caller gets an immediate FinishCancelled result; if it is executing, the
// controller finishes it with FinishCancelled and tells the workers to
// drop its state. Cancelling an unknown or already-finished query is a
// no-op. Cancels share the event queue with schedules, so a Cancel issued
// after its Schedule returned is always processed after the query started.
// Safe from any goroutine while Run is active.
func (c *Controller) Cancel(q query.ID) { c.enqueue(cancelReq(q)) }

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
	if !c.enqueue(mutateReq{ops: ops, ch: ch}) {
		return nil, errStopped
	}
	return ch, nil
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

// ForceSnapshot cuts a checkpoint of the committed graph now (the manual
// trigger behind POST /admin/snapshot) and truncates the committed-op log
// to the ops newer than the durable checkpoint. The fold runs on the
// background cutter; this call blocks until it (and the truncation)
// completed, but the event loop — and every commit — keeps
// running meanwhile. Safe from any goroutine while Run is active. A
// Result with Cut=false means the current version was already
// checkpointed (or the cut was aborted by fault injection).
func (c *Controller) ForceSnapshot() (snapshot.Result, error) { return ask[snapshot.Result](c) }

// ask puts a request on the event queue, a channel for its reply, and waits
// for the reply or for Run to return.
func ask[T any](c *Controller) (T, error) {
	ch := make(chan T, 1)
	if c.enqueue(ch) {
		select {
		case v := <-ch:
			return v, nil
		case <-c.doneCh:
		}
	}
	var zero T
	return zero, errStopped
}

// SnapshotStats reports the checkpointing counters and the live size of
// the committed-op log. Safe to call concurrently with Run; the serving
// layer surfaces it in /stats.
func (c *Controller) SnapshotStats() snapshot.Stats {
	st, l := c.cfg.Snapshots.Stats(), c.logStats.Load()
	st.DeltaLogLen, st.DeltaLogOps, st.DeltaLogBytes = l.DeltaLogLen, l.DeltaLogOps, l.DeltaLogBytes
	st.LastCutMS, st.LastCutUnixNS = l.LastCutMS, l.LastCutUnixNS
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
func (c *Controller) MVCCStats() MVCCStats { return *c.mvcc.Load() }

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

// publishMVCC snapshots the pin counts, the sealed FIFO and the live
// replicas' acks for concurrent readers; called whenever one changes.
// Everything is derived: a version is live while it is the latest or
// pinned, and every other version committed since BaseVersion is retired.
func (c *Controller) publishMVCC() {
	st := &MVCCStats{Latest: c.GraphVersion(), Live: len(c.pins), SealedInFlight: int64(len(c.commits.sealed))}
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
	acked := st.Latest
	for w, v := range c.ackVersion {
		if !c.members.dead[partition.WorkerID(w)] {
			acked = min(acked, v)
		}
	}
	st.MaxWorkerLag = st.Latest - acked
	st.Peak = st.Live
	if prev := c.mvcc.Load(); prev != nil {
		st.Peak = max(prev.Peak, st.Live)
	}
	c.mvcc.Store(st)
}

// QcutSnapshot returns the controller's current high-level view as a Q-cut
// input (the Q-cut ablations, the benchmark's planning row, debugging). It
// pulls the workers' intersection statistics, so it returns once every live
// worker answered, or with an error once the controller stopped. Its
// Deadline is zero: the budget is stamped by whoever runs Q-cut on it.
func (c *Controller) QcutSnapshot() (qcut.Input, error) { return ask[qcut.Input](c) }

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

// RepartitionEpoch returns the number of executed repartitioning barriers
// as a monotone epoch. Safe to call concurrently with Run.
func (c *Controller) RepartitionEpoch() int64 { return c.repartEpoch.Load() }

// Run pumps events into step until Stop is called. It returns the first
// fatal protocol error, if any. It starts every job step hands out, and
// returns only once each has reported: the cutter may still be writing into
// the store's directory, and a restart over it, or its removal, must not
// race the rename and the pruning.
func (c *Controller) Run() error {
	running := 0
	defer func() {
		// Order matters: close doneCh first so no new request can enqueue,
		// then fail requests that raced in before the close.
		close(c.doneCh)
		for running > 0 || len(c.events) > 0 {
			switch ev := (<-c.events).(type) {
			case scheduleReq:
				ev.refuse(protocol.FinishCancelled)
			case mutateReq:
				ev.ch <- MutationResult{Err: errStopped}
			case done:
				running--
			}
		}
	}()
	ticker := time.NewTicker(c.cfg.CheckEvery)
	defer ticker.Stop()
	inbox := c.conn.Inbox()
	for {
		var ev any
		select {
		case <-c.stopCh:
			c.failActive()
			return nil
		case ev = <-c.events:
			if d, ok := ev.(done); ok {
				running--
				ev = d.ev
			}
		case ev = <-c.walAckCh:
		case ev = <-ticker.C:
		case env, ok := <-inbox:
			if !ok {
				return nil
			}
			ev = env
		}
		if err := c.step(ev); err != nil {
			c.failActive()
			return err
		}
		for _, j := range c.jobs {
			running++
			go func() { c.events <- done{j()} }()
		}
		c.jobs = c.jobs[:0]
	}
}

// step takes one event to the controller's next state. An error is fatal.
func (c *Controller) step(ev any) error {
	switch ev := ev.(type) {
	case transport.Envelope:
		return c.handle(ev)
	case wal.AppendAck:
		return c.onWalAck(ev)
	case time.Time:
		c.onTick()
	case scheduleReq:
		c.onSchedule(ev)
	case cancelReq:
		c.onCancel(query.ID(ev))
	case mutateReq:
		c.onMutate(ev)
	case chan qcut.Input:
		c.pullStats(false, ev)
	case chan snapshot.Result:
		// The manual trigger: the reply comes once the requested cut, and
		// its truncation, completed, or now if the version was cut.
		c.commits.request(ev)
		c.maybeCheckpoint(c.cfg.Clock())
	case qcut.Result:
		c.onQcutDone(ev)
	case cutDone:
		c.onCutDone(ev)
	default:
		return fmt.Errorf("controller: unexpected event %T", ev)
	}
	return nil
}

// failActive shuts the workers down and delivers a cancelled result to
// every still-active or still-deferred query — and an error to every
// staged mutation — so callers never block on Stop.
func (c *Controller) failActive() {
	// Every worker slot, dead or alive: shutdown must also reach a
	// replacement that is still joining.
	for w := range c.cfg.K {
		c.conn.Send(protocol.WorkerNode(partition.WorkerID(w)), &protocol.Shutdown{})
	}
	c.failQueries(protocol.FinishCancelled)
	c.failMutations(errStopped, errStopped)
}

// failMutations delivers errors to every staged (pendingErr) and sealed
// (commitErr) mutation batch. The two differ on worker death: staged ops
// never left the controller, while a sealed batch was enqueued to the WAL
// and may already be durable, just never acknowledged.
func (c *Controller) failMutations(pendingErr, commitErr error) {
	for _, pm := range c.commits.muts {
		pm.ch <- MutationResult{Err: pendingErr}
	}
	for _, sb := range c.commits.sealed {
		for _, pm := range sb.muts {
			pm.ch <- MutationResult{Err: commitErr}
		}
	}
	c.commits.fail()
	c.publishMVCC()
}

func (c *Controller) handle(env transport.Envelope) error {
	// Fence dead workers: a worker declared dead stays dead until a
	// WorkerHello readmits it, however falsely the declaration turned out —
	// its partition is being (or has been) reassigned, so any message it
	// still emits refers to state that no longer exists.
	if env.From != protocol.ControllerNode && c.members.dead[protocol.WorkerOf(env.From)] {
		if m, ok := env.Msg.(*protocol.WorkerHello); ok {
			c.onWorkerHello(m)
		}
		return nil
	}
	if c.adapt.phase == phaseRecover {
		// Mid-recovery only the recovery protocol, liveness and a pull of
		// statistics (which outlives a round) speak; every other message is
		// a pre-recovery straggler from a live worker — per-link FIFO
		// guarantees they all arrive before that worker's PartitionAck, so
		// dropping them here is exhaustive.
		switch env.Msg.(type) {
		case *protocol.PartitionAck, *protocol.WorkerHello, *protocol.Pong, *protocol.StatsReport:
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
		c.pulled(c.adapt.report(m))
	case *protocol.Pong:
		c.onPong(m)
	case *protocol.WorkerHello:
		c.onWorkerHello(m)
	case *protocol.PartitionAck:
		// Outside a round, a straggler from a completed or aborted one:
		// members.ack finds it stale.
		return c.onPartitionAck(m)
	default:
		return fmt.Errorf("controller: unexpected message %T", env.Msg)
	}
	return nil
}

// broadcast sends m to every live worker (dead workers are fenced; their
// successor is addressed only once readmitted).
func (c *Controller) broadcast(m protocol.Message) {
	for w := 0; w < c.cfg.K; w++ {
		if c.members.dead[partition.WorkerID(w)] {
			continue
		}
		c.conn.Send(protocol.WorkerNode(partition.WorkerID(w)), m)
	}
}
