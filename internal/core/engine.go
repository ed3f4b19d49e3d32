// Package core assembles the Q-Graph system: it wires a controller and k
// workers over a transport, exposes the user-facing API (schedule queries,
// await results, inspect statistics), and owns component lifecycles.
//
// Every role starts the same way: the newest checkpoint in SnapshotDir,
// the WAL tail folded in, then the initial partitioning. Start runs the
// controller and its k workers in one process; StartController and
// StartWorker start one role each over a given transport endpoint, which
// is how cmd/qgraphd deploys them as separate processes.
//
// Typical use:
//
//	net, _ := gen.Road(gen.BWConfig(64))
//	eng, _ := core.Start(core.Config{
//		Workers:     8,
//		Graph:       net.G,
//		Partitioner: partition.Hash{},
//		Adapt:       true,
//	})
//	defer eng.Close()
//	h, _ := eng.Schedule(query.Spec{ID: 1, Kind: query.KindSSSP, Source: a, Target: b})
//	res := h.Wait()
package core

import (
	"fmt"
	"os"
	"sync"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
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
	"qgraph/internal/worker"
)

// Config assembles an engine. Zero values select the paper's defaults.
type Config struct {
	// Workers is k, the number of graph partitions.
	Workers int
	// Graph is the shared graph structure.
	Graph *graph.Graph
	// Partitioner computes the initial assignment (default: Hash).
	// Assignment, when non-nil, is used directly instead.
	Partitioner partition.Partitioner
	Assignment  partition.Assignment

	// Network is the transport; nil builds the in-process network.
	Network transport.Network

	// Adapt enables runtime Q-cut repartitioning.
	Adapt bool

	// Controller knobs (zero = paper defaults; see controller.Config).
	CheckEvery time.Duration
	Cooldown   time.Duration
	// Streaming-update and liveness knobs (zero = defaults; see
	// controller.Config).
	CommitEvery      time.Duration
	MaxBatchOps      int
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// RespawnWorkers relaunches a dead worker in-process when the
	// controller declares it lost: the replacement rejoins via
	// WorkerHello/PartitionGrant, rebuilding its graph view from the
	// committed-op replay, and (when it says hello in time) adopts its old
	// partition in place. Without it, recovery hands dead partitions to the
	// survivors.
	RespawnWorkers bool

	// Checkpointing (internal/snapshot). SnapshotDir persists checkpoints
	// durably ("" keeps them in memory only) and is created if missing;
	// every role starts from the newest checkpoint in it. The policy knobs
	// arm automatic cuts (zero = manual cuts only, via ForceSnapshot). Start
	// shares one snapshot store between the controller and every
	// (re)spawned worker, so grants can always resolve their replay base.
	SnapshotDir        string
	SnapshotKeep       int
	SnapshotEveryOps   int
	SnapshotEveryBytes int64
	SnapshotInterval   time.Duration
	// BaseVersion is the committed version Graph already contains; a
	// checkpoint in SnapshotDir replaces Graph only when it is newer.
	BaseVersion uint64
	// WALDir enables the durable write-ahead op log (internal/wal): every
	// committed batch is fsynced there before its caller is acknowledged,
	// and every role first replays the directory's tail beyond the
	// checkpoint into Graph — so an engine restarted over the same
	// directories (snapshot + WAL) resumes at the exact pre-crash version.
	WALDir string
	// WALGraphID names the graph identity the WAL belongs to (0 selects
	// 1); a directory written for another id refuses to open.
	WALGraphID uint64

	// Obs is the observability substrate (internal/obs), shared with the
	// serving layer so span trees rooted there continue through the
	// controller and into worker structured logs. Nil disables tracing
	// and controller metrics; in-process workers then log to discard.
	Obs *obs.Obs
	// Monitor is the active health layer (internal/obs/health), shared
	// with the serving layer; the controller feeds its detectors. Nil
	// disables the watchdogs.
	Monitor *health.Monitor
}

// closeWAL closes a possibly-nil WAL (Start error paths).
func closeWAL(w *wal.WAL) {
	if w != nil {
		w.Close()
	}
}

// Engine is a running Q-Graph instance.
type Engine struct {
	cfg Config
	// net carries the in-process workers; nil when they are other
	// processes (StartController).
	net      transport.Network
	ownNet   bool
	ctrl     *controller.Controller
	recorder *metrics.Recorder
	snaps    *snapshot.Store
	wal      *wal.WAL

	// assign is the initial partitioning; respawned workers are built
	// against it and adopt the live ownership map from their grant.
	assign partition.Assignment

	workerMu sync.Mutex
	workers  []*worker.Worker
	// workerLive[w] guards against two instances reading one transport
	// endpoint: a respawn only proceeds once the previous instance's Run
	// returned.
	workerLive []bool

	workerWG sync.WaitGroup
	done     chan struct{} // closed when the controller's Run returned
	errMu    sync.Mutex
	runErrs  []error
	closed   sync.Once
}

// Handle is a scheduled query awaiting its result.
type Handle struct {
	Spec query.Spec
	ch   <-chan controller.Result
}

// Wait blocks until the query finished and returns its result.
func (h *Handle) Wait() controller.Result { return <-h.ch }

// Done exposes the result channel for select loops.
func (h *Handle) Done() <-chan controller.Result { return h.ch }

// Start builds and launches an engine: the controller and its k workers in
// this process, over cfg.Network.
func Start(cfg Config) (*Engine, error) {
	assign, err := boot(&cfg)
	if err != nil {
		return nil, err
	}
	net, ownNet := cfg.Network, cfg.Network == nil
	if ownNet {
		net = transport.NewChanNetwork(cfg.Workers + 1)
	} else if net.Nodes() != cfg.Workers+1 {
		return nil, fmt.Errorf("core: network has %d nodes, want %d", net.Nodes(), cfg.Workers+1)
	}
	fail := func(err error) (*Engine, error) {
		if ownNet {
			net.Close()
		}
		return nil, err
	}
	e, err := newEngine(cfg, assign, net.Conn(protocol.ControllerNode), net)
	if err != nil {
		return fail(err)
	}
	e.ownNet = ownNet
	for w := 0; w < cfg.Workers; w++ {
		wk, err := worker.New(e.workerConfig(partition.WorkerID(w), false),
			net.Conn(protocol.WorkerNode(partition.WorkerID(w))))
		if err != nil {
			closeWAL(e.wal)
			return fail(err)
		}
		e.workers = append(e.workers, wk)
	}

	for w, wk := range e.workers {
		e.workerLive[w] = true
		e.runWorker(partition.WorkerID(w), wk)
	}
	e.run()
	return e, nil
}

// StartController runs the controller alone on conn, for a deployment
// whose k workers are other processes, each started by StartWorker over
// the same graph and directories. The engine has no local workers; Close
// stops the controller and closes the WAL, but not conn.
func StartController(cfg Config, conn transport.Conn) (*Engine, error) {
	assign, err := boot(&cfg)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg, assign, conn, nil)
	if err != nil {
		return nil, err
	}
	e.run()
	return e, nil
}

// StartWorker boots worker id alone on conn; its Run then serves until
// the controller shuts it down. rejoin announces a respawned worker, which
// adopts its state through the recovery protocol instead of assuming a
// fresh deployment. A fresh worker boots to the version its directories
// hold, and the controller sends it every commit after the version the
// controller booted to: so a deployment boots every worker before it starts
// the controller, or a worker would replay commits it is then sent again.
func StartWorker(cfg Config, id partition.WorkerID, rejoin bool, conn transport.Conn) (*worker.Worker, error) {
	assign, err := boot(&cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, assign: assign, snaps: cfg.snapshotStore(false)}
	c := e.workerConfig(id, rejoin)
	c.Logger = cfg.Obs.Log() // a worker process's logger already names its role
	return worker.New(c, conn)
}

// boot recovers, in place on cfg, the state every role starts from: it
// creates SnapshotDir, replaces Graph by the newest checkpoint there above
// BaseVersion, folds the WAL tail into it, and returns the initial
// assignment. Every node of a deployment boots from the same graph and
// directories, so all of them agree on the base byte for byte.
func boot(cfg *Config) (partition.Assignment, error) {
	if cfg.Workers < 1 || cfg.Workers > partition.MaxWorkers {
		return nil, fmt.Errorf("core: bad worker count %d", cfg.Workers)
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	log := cfg.Obs.Log()
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		snap, err := snapshot.LoadLatest(cfg.SnapshotDir)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if snap != nil && snap.Version > cfg.BaseVersion {
			cfg.Graph, cfg.BaseVersion = snap.Graph, snap.Version
			log.Info("restored checkpoint version", "version", snap.Version, "vertices",
				snap.Graph.NumVertices(), "edges", snap.Graph.NumEdges(), "dir", cfg.SnapshotDir)
		}
	}
	if cfg.WALDir != "" {
		if cfg.WALGraphID == 0 {
			cfg.WALGraphID = 1
		}
		g, v, err := wal.RecoverGraph(cfg.WALDir, cfg.WALGraphID, cfg.Graph, cfg.BaseVersion)
		if err != nil {
			return nil, fmt.Errorf("core: wal recovery: %w", err)
		}
		if v > cfg.BaseVersion {
			log.Info("wal replayed versions", "from", cfg.BaseVersion+1, "to", v)
		}
		cfg.Graph, cfg.BaseVersion = g, v
	}
	assign := cfg.Assignment
	if assign == nil {
		p := cfg.Partitioner
		if p == nil {
			p = partition.Hash{}
		}
		var err error
		if assign, err = p.Partition(cfg.Graph, cfg.Workers); err != nil {
			return nil, fmt.Errorf("core: initial partitioning: %w", err)
		}
	}
	return assign, assign.Validate(cfg.Workers)
}

// snapshotStore is the checkpoint store a role shares with its peers. Only
// SnapshotDir reaches another process, so without it a role whose peers run
// elsewhere gets none: the controller then keeps a private store whose cuts
// never truncate the log, and a worker's grants replay from its own base.
func (cfg *Config) snapshotStore(inProcess bool) *snapshot.Store {
	if cfg.SnapshotDir == "" && !inProcess {
		return nil
	}
	return snapshot.NewStore(cfg.SnapshotDir, cfg.SnapshotKeep)
}

// newEngine opens the WAL over the booted base and builds the controller on
// conn. net carries the in-process workers and their respawns; nil when the
// workers are other processes.
func newEngine(cfg Config, assign partition.Assignment, conn transport.Conn, net transport.Network) (*Engine, error) {
	var walLog *wal.WAL
	if cfg.WALDir != "" {
		var err error
		if walLog, err = wal.Open(cfg.WALDir, cfg.WALGraphID); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := walLog.Rebase(cfg.BaseVersion); err != nil {
			walLog.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	e := &Engine{cfg: cfg, net: net, recorder: metrics.NewRecorder(), assign: assign,
		workerLive: make([]bool, cfg.Workers), snaps: cfg.snapshotStore(net != nil),
		wal: walLog, done: make(chan struct{})}
	var respawn func(partition.WorkerID)
	if cfg.RespawnWorkers && net != nil {
		respawn = e.respawnWorker
	}
	ctrl, err := controller.New(controller.Config{
		K: cfg.Workers, Graph: cfg.Graph, Owner: assign, Adapt: cfg.Adapt,
		CheckEvery: cfg.CheckEvery, Cooldown: cfg.Cooldown,
		CommitEvery: cfg.CommitEvery, MaxBatchOps: cfg.MaxBatchOps,
		HeartbeatEvery: cfg.HeartbeatEvery, HeartbeatTimeout: cfg.HeartbeatTimeout,
		Respawn: respawn, Snapshots: e.snaps, SnapshotPolicy: snapshot.Policy{
			EveryOps: cfg.SnapshotEveryOps, EveryBytes: cfg.SnapshotEveryBytes, Interval: cfg.SnapshotInterval,
		},
		BaseVersion: cfg.BaseVersion, WAL: walLog,
		Recorder: e.recorder, Obs: cfg.Obs, Monitor: cfg.Monitor,
	}, conn)
	if err != nil {
		closeWAL(walLog)
		return nil, err
	}
	e.ctrl = ctrl
	return e, nil
}

// run starts the controller's event loop.
func (e *Engine) run() {
	go func() {
		defer close(e.done)
		if err := e.ctrl.Run(); err != nil {
			e.addErr(err)
		}
	}()
}

func (e *Engine) workerConfig(w partition.WorkerID, rejoin bool) worker.Config {
	c := worker.Config{
		ID: w, K: e.cfg.Workers, Graph: e.cfg.Graph, Owner: e.assign, BaseVersion: e.cfg.BaseVersion,
		Rejoin: rejoin, Snapshots: e.snaps,
	}
	if o := e.cfg.Obs; o != nil {
		c.Logger = o.Log().With("role", "worker")
	}
	return c
}

// runWorker drives one worker instance's lifecycle. An injected kill
// (faultpoint.ErrKilled) is a simulated crash, not an engine error — the
// controller's liveness detection and recovery own what happens next.
func (e *Engine) runWorker(w partition.WorkerID, wk *worker.Worker) {
	e.workerWG.Add(1)
	go func() {
		defer e.workerWG.Done()
		err := wk.Run()
		e.workerMu.Lock()
		e.workerLive[w] = false
		e.workerMu.Unlock()
		if err != nil && err != faultpoint.ErrKilled {
			e.addErr(err)
		}
	}()
}

// respawnWorker relaunches worker w on its transport endpoint. Called by
// the controller when it declares w dead; the replacement starts in
// joining mode and adopts state through the recovery protocol. If the
// previous instance is somehow still running (a falsely-declared death),
// nothing is launched — two readers on one endpoint would split the
// message stream.
func (e *Engine) respawnWorker(w partition.WorkerID) {
	e.workerMu.Lock()
	defer e.workerMu.Unlock()
	if e.workerLive[w] {
		return
	}
	wk, err := worker.New(e.workerConfig(w, true), e.net.Conn(protocol.WorkerNode(w)))
	if err != nil {
		e.addErr(fmt.Errorf("core: respawn worker %d: %w", w, err))
		return
	}
	e.workers[w] = wk
	e.workerLive[w] = true
	e.runWorker(w, wk)
}

func (e *Engine) addErr(err error) {
	e.errMu.Lock()
	e.runErrs = append(e.runErrs, err)
	e.errMu.Unlock()
}

// Schedule submits a query for execution.
func (e *Engine) Schedule(spec query.Spec) (*Handle, error) {
	ch, err := e.ctrl.Schedule(spec)
	if err != nil {
		return nil, err
	}
	return &Handle{Spec: spec, ch: ch}, nil
}

// RunBatch executes specs with at most `parallel` queries in flight (the
// paper runs batches of 16 parallel queries): as soon as one finishes the
// next is scheduled. Results are returned in completion order.
func (e *Engine) RunBatch(specs []query.Spec, parallel int) ([]controller.Result, error) {
	if parallel < 1 {
		parallel = 16
	}
	out := make(chan controller.Result)
	errCh := make(chan error, len(specs)) // every failure fits: none is dropped
	go func() {
		sem := make(chan struct{}, parallel)
		for _, spec := range specs {
			sem <- struct{}{}
			h, err := e.Schedule(spec)
			if err != nil {
				errCh <- err
				<-sem
				continue
			}
			go func() {
				out <- h.Wait()
				<-sem
			}()
		}
	}()
	results := make([]controller.Result, 0, len(specs))
	var firstErr error
	for len(results) < len(specs) {
		select {
		case err := <-errCh:
			// A schedule failed; one fewer result will arrive.
			if firstErr == nil {
				firstErr = err
			}
			specs = specs[:len(specs)-1]
		case r := <-out:
			results = append(results, r)
		}
	}
	return results, firstErr
}

// Cancel abandons a scheduled query (see controller.Cancel).
func (e *Engine) Cancel(q query.ID) { e.ctrl.Cancel(q) }

// Mutate stages a batch of streaming graph updates; the result arrives on
// the channel once the batch committed (see controller.Mutate).
func (e *Engine) Mutate(ops []delta.Op) (<-chan controller.MutationResult, error) {
	return e.ctrl.Mutate(ops)
}

// GraphVersion returns the number of committed mutation batches (safe
// concurrently with the run).
func (e *Engine) GraphVersion() uint64 { return e.ctrl.GraphVersion() }

// GraphView returns a snapshot of the current committed graph.
func (e *Engine) GraphView() graph.View { return e.ctrl.GraphView() }

// Health reports worker liveness (see controller.Health).
func (e *Engine) Health() controller.Health { return e.ctrl.Health() }

// RecoveryStats reports the worker-failure recovery counters (see
// controller.RecoveryStats).
func (e *Engine) RecoveryStats() controller.RecoveryStats { return e.ctrl.RecoveryStats() }

// ForceSnapshot cuts a checkpoint of the committed graph now and truncates
// the committed-op log (see controller.ForceSnapshot).
func (e *Engine) ForceSnapshot() (snapshot.Result, error) { return e.ctrl.ForceSnapshot() }

// SnapshotStats reports checkpointing counters and the live op-log size
// (see controller.SnapshotStats).
func (e *Engine) SnapshotStats() snapshot.Stats { return e.ctrl.SnapshotStats() }

// WALStats reports the durable write-ahead log's accounting (Enabled is
// false when the engine runs without a WAL; see controller.WALStats).
func (e *Engine) WALStats() wal.Stats { return e.ctrl.WALStats() }

// MVCCStats reports the commit pipeline's multi-version accounting.
func (e *Engine) MVCCStats() controller.MVCCStats { return e.ctrl.MVCCStats() }

// GraphBase returns the graph and committed version the engine started
// from after snapshot/WAL recovery (what Config.Graph/BaseVersion became).
func (e *Engine) GraphBase() (*graph.Graph, uint64) { return e.cfg.Graph, e.cfg.BaseVersion }

// Controller exposes the controller, which implements the serving layer's
// backend contract (Schedule, Cancel, RepartitionEpoch).
func (e *Engine) Controller() *controller.Controller { return e.ctrl }

// RepartitionEpoch returns the live repartition count (safe concurrently
// with the run; see controller.RepartitionEpoch).
func (e *Engine) RepartitionEpoch() int64 { return e.ctrl.RepartitionEpoch() }

// Recorder returns the engine's metrics recorder.
func (e *Engine) Recorder() *metrics.Recorder { return e.recorder }

// QcutSnapshot exposes the controller's current high-level view; it pulls
// the workers' intersection statistics (see controller.QcutSnapshot).
func (e *Engine) QcutSnapshot() (qcut.Input, error) { return e.ctrl.QcutSnapshot() }

// Workers exposes the current worker instances (tests assert internal
// invariants such as the forwarded-message counter); slot w holds the
// latest incarnation of worker w, which changes when a respawn replaces a
// crashed instance.
func (e *Engine) Workers() []*worker.Worker {
	e.workerMu.Lock()
	defer e.workerMu.Unlock()
	return append([]*worker.Worker(nil), e.workers...)
}

// Done is closed once the controller has stopped: after Close, or earlier
// if it failed, in which case Close reports why.
func (e *Engine) Done() <-chan struct{} { return e.done }

// Close stops the controller and workers and releases the network. It
// returns the first component error encountered during the run.
func (e *Engine) Close() error {
	e.closed.Do(func() {
		// Order matters: stop the controller (it broadcasts Shutdown as
		// its final message), let every worker drain its inbox up to that
		// Shutdown, and only then tear the network down.
		e.ctrl.Stop()
		<-e.done
		e.workerWG.Wait()
		if e.ownNet {
			e.net.Close()
		}
		closeWAL(e.wal)
	})
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if len(e.runErrs) > 0 {
		return e.runErrs[0]
	}
	return nil
}
