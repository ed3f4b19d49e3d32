// Package worker implements the Q-Graph worker layer (Fig. 2 of the
// paper): low-level, vertex-centric graph processing with local knowledge.
// A worker owns a partition of the vertices, executes the vertex functions
// of all queries over its partition superstep by superstep, batches
// messages to remote vertices, tracks each query's local scope LS(q,w),
// and cooperates with the controller through the barrier protocol —
// including the local query barrier that lets it iterate a solo query
// without any controller round-trips (Sec. 3.3).
//
// A worker is a single event loop over its transport inbox; all state is
// confined to that goroutine.
package worker

import (
	"cmp"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
)

// Config parameterises a worker.
type Config struct {
	// ID is this worker's id; K the total worker count.
	ID partition.WorkerID
	K  int
	// Graph is the shared immutable graph structure (each worker process
	// loads its own copy in distributed deployments).
	Graph *graph.Graph
	// Owner is the initial vertex→worker assignment; the worker keeps a
	// private copy and applies ownership updates to it.
	Owner partition.Assignment
	// ScopeTTL is how long at most a finished query is remembered (the
	// monitoring window μ, default protocol.DefaultMu): its vertex set, for
	// move directives, and its id.
	ScopeTTL time.Duration
	// ComputeCost simulates per-active-vertex work beyond the actual
	// vertex function (heavier application logic, (de)serialization of
	// vertex data). A worker saturates when hotspot load concentrates on
	// it — the straggler effect the paper's balance constraint guards
	// against. Zero disables the simulation.
	ComputeCost time.Duration
	// Rejoin starts the worker in joining mode: it announces itself with
	// WorkerHello and ignores everything until the controller's
	// PartitionGrant rebuilds its state (worker failure recovery — this is
	// how a respawned worker replaces a dead one on the same node id).
	Rejoin bool
	// BaseVersion is the committed version Graph already contains (a
	// deployment restarted from a checkpoint, internal/snapshot). The
	// worker's view starts there and must match the controller's base.
	BaseVersion uint64
	// Snapshots resolves checkpoints a PartitionGrant replays over: the
	// controller truncates its op log at every checkpoint, so a grant's
	// BaseVersion beyond the worker's own base must be looked up here
	// (shared in-process store, or a disk-backed store over the same
	// snapshot directory). Nil restricts grants to BaseVersion ==
	// Config.BaseVersion.
	Snapshots *snapshot.Store
	// Logger receives structured operational logs (query admission with
	// trace IDs, rejoin replay provenance); nil discards them.
	Logger *slog.Logger
	// Clock abstracts time for tests; nil means time.Now.
	Clock func() time.Time
}

func (c *Config) fill() {
	if c.ScopeTTL <= 0 {
		c.ScopeTTL = protocol.DefaultMu
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// queryState is the worker-local state of one query: its private vertex
// data (the local query scope) and per-superstep inboxes, each a table.
type queryState struct {
	spec query.Spec
	prog query.Program
	// view is the immutable graph snapshot this query computes against:
	// the worker's view at ExecuteQuery (checked to be spec.PinVersion),
	// held until the query finishes. Batches committed at later versions
	// are invisible to it — MVCC snapshot isolation, which is what lets
	// commits land without quiescing.
	view *delta.View

	// data holds the query-private value of every vertex the query touched
	// on this worker; its key set is LS(q, w).
	data *table
	// sig is the scope's signature (see frozenSig) while it still grows, keyed
	// by block; newBlocks are the blocks that entered it since the last
	// barrier report.
	sig       *table
	newBlocks []int32
	// inbox[s] holds combined messages to be consumed by superstep s.
	inbox map[int32]*table
	// recvBatches[s] counts vertex batches received that were sent during
	// superstep s (consumed by s+1); the barrier release waits on it.
	recvBatches map[int32]int32
	// pending is a barrier release we cannot honor yet because expected
	// batches have not all arrived.
	pending *protocol.BarrierReady
	// release is the active barrier release being executed; while it has
	// Solo set, the worker keeps re-queueing the query for further local
	// supersteps (the local query barrier) without controller round-trips.
	release *protocol.BarrierReady
	// soloFrom is the first superstep covered by the current release.
	soloFrom int32
	// step is the next superstep to compute.
	step int32
	// bestGoal is the best goal value seen on this worker.
	bestGoal float64
	// computeNS accumulates wall time spent in computeStep since the last
	// barrier report; it ships to the controller on BarrierSynch so the
	// query's trace can attribute superstep time per worker.
	computeNS int64
}

const sigShift = protocol.SigShift

type sigBlock struct{ blk, n int32 } // n touched vertices in id block blk

// frozenSig is a coarse signature of a finished scope: touched vertices per
// sigShift-sized id block, sorted by block. Intersection statistics are
// estimated from signatures instead of exact key-set walks, which makes the
// Iw report (Sec. 3.4) a pass over O(scope/2^sigShift) blocks per query pair
// — the clustering that consumes them only needs affinity.
type frozenSig []sigBlock

func freezeSig(sig *table) frozenSig {
	out := make(frozenSig, 0, sig.len())
	for i, blk := range sig.keys {
		out = append(out, sigBlock{int32(blk), int32(sig.vals[i])})
	}
	slices.SortFunc(out, func(a, b sigBlock) int { return cmp.Compare(a.blk, b.blk) })
	return out
}

// add counts vertex v into (d = 1) or out of (d = -1) the signature.
func (s *frozenSig) add(v graph.VertexID, d int32) {
	blk := int32(v) >> sigShift
	i, ok := slices.BinarySearchFunc(*s, blk, func(e sigBlock, blk int32) int { return cmp.Compare(e.blk, blk) })
	if !ok {
		*s = slices.Insert(*s, i, sigBlock{blk: blk})
	}
	if (*s)[i].n += d; (*s)[i].n <= 0 {
		*s = slices.Delete(*s, i, i+1)
	}
}

// finishedScope is what a worker remembers of a finished query (see remember
// for how long): that it finished, which tells late batches from batches that
// raced ahead of the ExecuteQuery broadcast on another link; its local vertex
// set, so move directives can still relocate the hotspot; and its signature,
// for the pairs a StatsPull asks for while it is windowed.
type finishedScope struct {
	q     query.ID
	verts map[graph.VertexID]bool
	sig   frozenSig
	at    time.Time
}

// Worker is the worker-layer event loop.
type Worker struct {
	cfg  Config
	conn transport.Conn
	// view is the worker's current graph: the shared immutable base plus
	// the overlay of every committed mutation batch (internal/delta). It
	// advances whenever a DeltaBatch arrives (off-barrier in the pipelined
	// commit path), but queries never read it directly mid-flight: each
	// query keeps the pointer it found here at ExecuteQuery (views are
	// immutable), so a version bump between supersteps is invisible to
	// running queries, and a superseded version is garbage once the last
	// query holding it finishes.
	view *delta.View
	k    int
	id   partition.WorkerID

	owner   partition.Assignment
	queries map[query.ID]*queryState
	// finished holds the queries last seen to finish (see remember), indexed
	// by id and (finishOrder) oldest first; window() is its newest end.
	finished    map[query.ID]*finishedScope
	finishOrder []*finishedScope
	// early buffers batches that arrived before their query's
	// ExecuteQuery; they are replayed when it arrives.
	early map[query.ID][]*protocol.VertexBatch

	// Recovery state. gen is the recovery generation this worker lives in;
	// vertex batches and scope data from other generations are dropped, since
	// recovery discarded their queries and moves on every node. joining marks
	// a respawned worker that has said hello and must ignore all traffic
	// addressed to its dead predecessor until the controller's
	// PartitionGrant.
	gen     int32
	joining bool
	// replayedOps counts the operations the latest PartitionGrant replayed
	// to rebuild this worker's view — with checkpointing, O(ops since the
	// checkpoint), not O(history). Atomic: tests and harnesses read it
	// while the worker runs.
	replayedOps atomic.Int64

	// Global barrier state. stop is the GlobalStop whose StopAck waits for
	// the markers of its peers; markers counts the StopMarkers received per
	// epoch, which may run ahead of this worker's own GlobalStop.
	stopping bool
	stop     *protocol.GlobalStop
	markers  map[int32]int
	// arrived tracks vertices received via ScopeData in the current global
	// barrier. Move directives exclude them, so chained directives
	// (q: w1→w2 and q: w2→w3 in the same barrier) relocate exactly the
	// scopes the controller saw, independent of delivery order.
	arrived map[graph.VertexID]bool

	// Forwarded counts batch entries that arrived for vertices this worker
	// does not own. The protocol guarantees zero; tests assert it.
	Forwarded int

	// ready queues queries with a runnable superstep. Processing one
	// superstep per scheduling turn interleaves concurrent queries fairly:
	// a long solo query must not monopolize the worker while others wait
	// (multi-query execution, Sec. 3.3).
	ready []query.ID
	// computeDebt accumulates simulated per-vertex compute time until it
	// is large enough to sleep accurately (see Config.ComputeCost).
	computeDebt time.Duration

	// outBuf[dst] stages the running superstep's emissions to worker dst.
	outBuf []*table
	// tables is the free list of the tables consumed inboxes, flushed out
	// buffers and finished queries give back: growing fresh ones per (query,
	// superstep) was half of what a query allocated.
	tables []*table
	// scratch is the dense signature pairs scatters a windowed scope into,
	// one counter per block of the graph; zero between calls.
	scratch []int32
}

// New creates a worker bound to conn.
func New(cfg Config, conn transport.Conn) (*Worker, error) {
	cfg.fill()
	if cfg.Graph == nil {
		return nil, fmt.Errorf("worker %d: nil graph", cfg.ID)
	}
	if len(cfg.Owner) != cfg.Graph.NumVertices() {
		return nil, fmt.Errorf("worker %d: ownership table covers %d of %d vertices",
			cfg.ID, len(cfg.Owner), cfg.Graph.NumVertices())
	}
	w := &Worker{
		cfg:      cfg,
		conn:     conn,
		view:     delta.NewViewAt(cfg.Graph, cfg.BaseVersion),
		k:        cfg.K,
		id:       cfg.ID,
		owner:    cfg.Owner.Clone(),
		queries:  make(map[query.ID]*queryState),
		finished: make(map[query.ID]*finishedScope),
		early:    make(map[query.ID][]*protocol.VertexBatch),
		markers:  make(map[int32]int),
		outBuf:   make([]*table, cfg.K),
		joining:  cfg.Rejoin,
	}
	return w, nil
}

// Run processes the inbox until Shutdown arrives or the inbox closes.
// Incoming messages take priority; between messages the worker executes
// one queued superstep per turn. It returns the first fatal error (nil on
// clean shutdown, faultpoint.ErrKilled on an injected crash — after which
// the worker stops reading its inbox entirely, like a dead process would).
func (w *Worker) Run() error {
	if w.cfg.Rejoin {
		if err := w.conn.Send(protocol.ControllerNode, &protocol.WorkerHello{W: w.id}); err != nil {
			return fmt.Errorf("worker %d: hello: %w", w.id, err)
		}
	}
	inbox := w.conn.Inbox()
	for {
		var env transport.Envelope
		var ok bool
		if len(w.ready) == 0 {
			env, ok = <-inbox
		} else {
			select {
			case env, ok = <-inbox:
			default:
				if err := w.runReady(); err != nil {
					return w.fatal(err)
				}
				continue
			}
		}
		if !ok {
			return nil
		}
		stop, err := w.handle(env)
		if err != nil {
			return w.fatal(err)
		}
		if stop {
			return nil
		}
	}
}

// fatal wraps genuine errors with the worker id; an injected kill passes
// through unwrapped so harnesses can recognize it.
func (w *Worker) fatal(err error) error {
	if err == faultpoint.ErrKilled {
		return err
	}
	return fmt.Errorf("worker %d: %w", w.id, err)
}

// runReady executes one superstep of the oldest runnable query.
func (w *Worker) runReady() error {
	q := w.ready[0]
	w.ready = w.ready[1:]
	qs, ok := w.queries[q]
	if !ok || qs.release == nil {
		return nil // query finished or was superseded meanwhile
	}
	return w.stepOnce(q, qs)
}

func (w *Worker) handle(env transport.Envelope) (stop bool, err error) {
	if w.joining {
		// A rejoining worker sees the stale traffic addressed to its dead
		// predecessor until the controller admits it back; only the grant
		// (and liveness probes, and a shutdown) are meaningful.
		switch m := env.Msg.(type) {
		case *protocol.PartitionGrant:
			return false, w.onPartitionGrant(m)
		case *protocol.Ping:
			return false, w.conn.Send(protocol.ControllerNode, &protocol.Pong{Seq: m.Seq, W: w.id})
		case *protocol.Shutdown:
			return true, nil
		default:
			return false, nil
		}
	}
	switch m := env.Msg.(type) {
	case *protocol.ExecuteQuery:
		err = w.onExecute(m)
	case *protocol.BarrierReady:
		err = w.onBarrierReady(m)
	case *protocol.QueryFinish:
		w.onFinish(m)
	case *protocol.StatsPull:
		err = w.conn.Send(protocol.ControllerNode, &protocol.StatsReport{Seq: m.Seq, W: w.id, Pairs: w.pairs()})
	case *protocol.VertexBatch:
		err = w.onVertexBatch(m)
	case *protocol.GlobalStop:
		err = w.onGlobalStop(m)
	case *protocol.StopMarker:
		w.markers[m.Epoch]++
		err = w.maybeAckStop()
	case *protocol.MoveScope:
		err = w.onMoveScope(m)
	case *protocol.ScopeData:
		err = w.onScopeData(m)
	case *protocol.OwnershipUpdate:
		for i, v := range m.Vertices {
			w.owner[v] = m.Owners[i]
		}
	case *protocol.DeltaBatch:
		err = w.onDeltaBatch(m)
	case *protocol.Ping:
		err = w.conn.Send(protocol.ControllerNode, &protocol.Pong{Seq: m.Seq, W: w.id})
	case *protocol.RecoverStart:
		err = w.onRecoverStart(m)
	case *protocol.GlobalStart:
		w.stopping = false
	case *protocol.Shutdown:
		return true, nil
	default:
		err = fmt.Errorf("unexpected message %T", env.Msg)
	}
	return false, err
}

// onRecoverStart resets this surviving worker into recovery generation
// m.Gen. All live query state is dropped (the controller re-executes the
// affected queries from superstep 0), so is a StopAck still waiting for
// markers, and the ownership map is replaced wholesale with the
// controller's authoritative copy. Remembered finished scopes survive:
// their vertex sets are still valid under the new ownership and keep
// Q-cut's hotspot history useful.
func (w *Worker) onRecoverStart(m *protocol.RecoverStart) error {
	if faultpoint.Hit(faultpoint.WorkerRecover, int(w.id)) {
		return faultpoint.ErrKilled
	}
	// The controller applies and fsyncs a batch before it broadcasts it, and
	// per-link FIFO delivers every broadcast batch before this message, so
	// the replica is at exactly the committed version — never ahead of it
	// (nothing is ever rolled back) and never behind.
	if w.view.Version() != m.Version {
		return fmt.Errorf("recover at version %d, controller at %d (replica divergence)",
			w.view.Version(), m.Version)
	}
	if len(m.Owner) != w.view.NumVertices() {
		return fmt.Errorf("recover ownership covers %d of %d vertices", len(m.Owner), w.view.NumVertices())
	}
	w.resetForRecovery(m.Gen, m.Owner)
	return w.conn.Send(protocol.ControllerNode, &protocol.PartitionAck{
		Gen: m.Gen, W: w.id, Version: w.view.Version(),
	})
}

// onPartitionGrant admits this rejoining worker into the live set: rebuild
// the graph view by replaying the grant's op tail over the graph at its
// BaseVersion — the shared base when it matches this worker's own, else a
// checkpoint resolved from the local snapshot store — then adopt the
// ownership map and leave joining mode. With checkpointing, the tail is
// O(ops since the newest checkpoint), not the full mutation history.
//
// When the exact checkpoint the grant names is gone (pruned from the
// store, or this worker restarted from a newer snapshot + WAL tail), the
// replay falls back to the newest local base inside the grant's batch
// range and skips the batches it already folds in. The version chain is
// still verified batch by batch, so a base the tail cannot connect to
// fails loudly — never a silently diverged replay.
func (w *Worker) onPartitionGrant(m *protocol.PartitionGrant) error {
	base, baseV := w.cfg.Graph, w.cfg.BaseVersion
	if m.BaseVersion != baseV {
		// A base is usable iff the grant's batches can bridge it to the
		// granted version.
		usable := func(v uint64) bool { return v > m.BaseVersion && v <= m.Version }
		var snap *snapshot.Snapshot
		if w.cfg.Snapshots != nil {
			if snap = w.cfg.Snapshots.At(m.BaseVersion); snap == nil {
				if latest := w.cfg.Snapshots.Latest(); latest != nil && usable(latest.Version) {
					snap = latest
				}
			}
		}
		switch {
		case snap != nil:
			base, baseV = snap.Graph, snap.Version
		case usable(baseV):
			// Our own base graph already contains a prefix of the grant's
			// batches (a restart from a newer checkpoint); replay the rest.
		case w.cfg.Snapshots == nil:
			return fmt.Errorf("grant replays from checkpoint %d but no snapshot store is configured", m.BaseVersion)
		default:
			return fmt.Errorf("grant replays from checkpoint %d, not available locally", m.BaseVersion)
		}
	}
	batches := m.Batches
	for len(batches) > 0 && batches[0].Version <= baseV {
		batches = batches[1:]
	}
	view, err := delta.ReplayBatchesFrom(base, baseV, batches)
	if err != nil {
		return fmt.Errorf("grant replay: %w", err)
	}
	if view.Version() != m.Version {
		return fmt.Errorf("grant replay reached version %d, want %d", view.Version(), m.Version)
	}
	if len(m.Owner) != view.NumVertices() {
		return fmt.Errorf("grant ownership covers %d of %d vertices", len(m.Owner), view.NumVertices())
	}
	replayed := 0
	for _, b := range batches {
		replayed += len(b.Ops)
	}
	w.replayedOps.Store(int64(replayed))
	w.cfg.Logger.Info("rejoined",
		"worker", int(w.id), "graph_version", m.Version,
		"replayed_ops", replayed, "checkpoint_version", baseV, "gen", m.Gen)
	w.view = view
	w.joining = false
	w.resetForRecovery(m.Gen, m.Owner)
	return w.conn.Send(protocol.ControllerNode, &protocol.PartitionAck{
		Gen: m.Gen, W: w.id, Version: view.Version(),
	})
}

// ReplayedOps returns the operations the latest PartitionGrant replayed to
// rebuild this worker's view (0 before any rejoin). Safe concurrently with
// Run; tests assert it stays below ops-since-checkpoint.
func (w *Worker) ReplayedOps() int64 { return w.replayedOps.Load() }

// resetForRecovery clears every piece of in-flight state that references
// the pre-recovery generation: live queries, early buffers, the ready
// queue, the marker wait of an aborted barrier, and move bookkeeping. The
// wait must go: a StopAck it released now would reach a controller that
// left the aborted barrier.
func (w *Worker) resetForRecovery(gen int32, owner []partition.WorkerID) {
	w.gen = gen
	w.owner = append(w.owner[:0], owner...)
	w.queries = make(map[query.ID]*queryState)
	w.early = make(map[query.ID][]*protocol.VertexBatch)
	w.ready = nil
	w.stop = nil
	clear(w.markers)
	w.arrived = nil
	w.outBuf = make([]*table, w.k)
	// Recovery acts as a global barrier: the controller releases the
	// restarted queries with GlobalStart after every live worker acked.
	w.stopping = true
}

// onExecute registers a query. ExecuteQuery is broadcast to every worker so
// that all of them know the spec (scope moves may later hand any worker a
// piece of any query); only owners of initially active vertices get work.
func (w *Worker) onExecute(m *protocol.ExecuteQuery) error {
	if _, ok := w.queries[m.Spec.ID]; ok {
		return fmt.Errorf("query %d already executing", m.Spec.ID)
	}
	prog, err := query.New(m.Spec.Kind)
	if err != nil {
		return err
	}
	// Per-link FIFO makes the pinned version exactly this worker's current
	// one: the controller broadcast every DeltaBatch up to PinVersion
	// before this ExecuteQuery, and the batch for PinVersion+1 (if any)
	// comes after it. A mismatch means a lost or reordered commit.
	if m.Spec.PinVersion != w.view.Version() {
		return fmt.Errorf("query %d pinned at version %d, local version %d (replica divergence)",
			m.Spec.ID, m.Spec.PinVersion, w.view.Version())
	}
	qs := &queryState{
		spec:        m.Spec,
		prog:        prog,
		view:        w.view,
		data:        w.table(),
		sig:         w.table(),
		inbox:       make(map[int32]*table),
		recvBatches: make(map[int32]int32),
		bestGoal:    query.NoResult,
	}
	for _, act := range prog.Init(qs.view, m.Spec) {
		if w.owner[act.V] == w.id {
			w.combineIn(qs, 0, act.V, act.Msg)
		}
	}
	w.queries[m.Spec.ID] = qs
	if m.Spec.TraceID != 0 {
		// Correlates this worker's share of the query with the span tree
		// the serving layer assembles (internal/obs).
		w.cfg.Logger.Info("query start",
			"worker", int(w.id), "query", int64(m.Spec.ID),
			"trace_id", m.Spec.TraceID, "kind", m.Spec.Kind.String(),
			"graph_version", qs.view.Version())
	}
	// Replay any batches that raced ahead of this broadcast on a
	// worker-worker link.
	if buffered := w.early[m.Spec.ID]; buffered != nil {
		delete(w.early, m.Spec.ID)
		for _, b := range buffered {
			w.deliverBatch(qs, b)
		}
	}
	return nil
}

// table takes an empty table off the free list.
func (w *Worker) table() *table {
	if n := len(w.tables); n > 0 {
		t := w.tables[n-1]
		w.tables = w.tables[:n-1]
		return t
	}
	return newTable()
}

// free empties t onto the free list; the caller must hold no other reference.
func (w *Worker) free(t *table) {
	t.reset()
	w.tables = append(w.tables, t)
}

// touch counts first-touched vertex v into the scope signature.
func (qs *queryState) touch(v graph.VertexID) {
	blk := protocol.BlockOf(v)
	n, ok := qs.sig.get(graph.VertexID(blk))
	if !ok { // no block stays at zero
		qs.newBlocks = append(qs.newBlocks, blk)
	}
	qs.sig.set(graph.VertexID(blk), n+1)
}

// combineIn merges a message for vertex v into the inbox of superstep s.
func (w *Worker) combineIn(qs *queryState, s int32, v graph.VertexID, val float64) {
	box := qs.inbox[s]
	if box == nil {
		box = w.table()
		qs.inbox[s] = box
	}
	box.combine(v, val, qs.prog)
}

// onBarrierReady releases (or defers) the next superstep of a query.
func (w *Worker) onBarrierReady(m *protocol.BarrierReady) error {
	qs, ok := w.queries[m.Q]
	if !ok {
		return fmt.Errorf("barrierReady for unknown query %d", m.Q)
	}
	qs.pending = m
	w.tryAdvance(m.Q, qs)
	return nil
}

// tryAdvance activates the pending release once all expected batches
// arrived, queueing the query's superstep for execution.
func (w *Worker) tryAdvance(q query.ID, qs *queryState) {
	m := qs.pending
	if m == nil {
		return
	}
	if !m.Drained && m.Expect > 0 && qs.recvBatches[m.Step-1] < m.Expect {
		return // batches still in flight
	}
	qs.pending = nil
	delete(qs.recvBatches, m.Step-1)
	qs.release = m
	qs.soloFrom = m.Step
	qs.step = m.Step
	w.ready = append(w.ready, q)
}

// onVertexBatch buffers remote messages and re-checks any deferred release.
func (w *Worker) onVertexBatch(m *protocol.VertexBatch) error {
	if m.Gen != w.gen {
		// A batch from before a recovery reset: its query state was
		// discarded everywhere, so it must not deliver.
		return nil
	}
	qs, ok := w.queries[m.Q]
	if !ok {
		if w.finished[m.Q] == nil {
			// The batch raced ahead of the ExecuteQuery broadcast on
			// another link; hold it until the query is known.
			w.early[m.Q] = append(w.early[m.Q], m)
		}
		// Batches of finished queries are obsolete: the controller only
		// finishes a query once no improving message can exist.
		return nil
	}
	w.deliverBatch(qs, m)
	w.tryAdvance(m.Q, qs)
	return nil
}

// deliverBatch merges a batch's entries into the query inbox.
func (w *Worker) deliverBatch(qs *queryState, m *protocol.VertexBatch) {
	qs.recvBatches[m.Step]++
	for _, e := range m.Entries {
		if dst := w.owner[e.To]; dst != w.id {
			// Should be impossible: ownership only changes while the
			// network is drained. Count and forward defensively.
			w.Forwarded++
			w.sendBatch(qs.spec.ID, m.Step, dst, []protocol.VertexMsg{e})
			continue
		}
		w.combineIn(qs, m.Step+1, e.To, e.Val)
	}
}

// onDeltaBatch applies one committed mutation batch. It arrives
// off-barrier, between supersteps of whatever is running: that is safe
// because queries read their pinned snapshots, not this worker's current
// view, so a version bump mid-query is invisible to it. The event loop
// applies whole messages between supersteps, so the view still never
// changes mid-superstep. New vertices extend the ownership table with the
// controller-assigned owners; running queries pinned at older versions
// never reference them.
func (w *Worker) onDeltaBatch(m *protocol.DeltaBatch) error {
	if faultpoint.Hit(faultpoint.WorkerDeltaApply, int(w.id)) {
		return faultpoint.ErrKilled
	}
	// Batches are broadcast once each, in version order, over a FIFO link:
	// a repeat or a gap means this replica no longer follows the chain.
	if m.Version != w.view.Version()+1 {
		return fmt.Errorf("delta batch version %d at local version %d (replica divergence)",
			m.Version, w.view.Version())
	}
	nv, _, err := w.view.Apply(m.Ops)
	if err != nil {
		return fmt.Errorf("delta batch %d: %w", m.Version, err)
	}
	w.view = nv
	w.owner = append(w.owner, m.NewOwners...)
	if len(w.owner) != nv.NumVertices() {
		return fmt.Errorf("delta batch %d: ownership covers %d of %d vertices",
			m.Version, len(w.owner), nv.NumVertices())
	}
	if faultpoint.Hit(faultpoint.WorkerDeltaAck, int(w.id)) {
		return faultpoint.ErrKilled
	}
	return w.conn.Send(protocol.ControllerNode, &protocol.DeltaAck{Version: m.Version, W: w.id})
}

// View exposes the worker's current graph view (tests assert version and
// topology convergence).
func (w *Worker) View() *delta.View { return w.view }

// onGlobalStop flushes every link into this worker with markers. The
// controller quiesces all queries before stopping, so the ready queue is
// empty here; any stragglers run first (with the stopping flag set they
// report out after one superstep), so the markers follow this worker's last
// vertex batch before GlobalStart on every link.
func (w *Worker) onGlobalStop(m *protocol.GlobalStop) error {
	w.stopping = true
	w.arrived = make(map[graph.VertexID]bool)
	for len(w.ready) > 0 {
		if err := w.runReady(); err != nil {
			return err
		}
	}
	if faultpoint.Hit(faultpoint.WorkerBarrierStop, int(w.id)) {
		return faultpoint.ErrKilled
	}
	for _, p := range m.Live {
		if p != w.id {
			// A peer that just died fails the send, as it fails a vertex
			// batch; recovery then aborts the barrier.
			w.conn.Send(protocol.WorkerNode(p), &protocol.StopMarker{Epoch: m.Epoch})
		}
	}
	w.stop = m
	return w.maybeAckStop()
}

// maybeAckStop sends the StopAck of a pending GlobalStop once a marker of
// its epoch arrived from every other live worker: each link is FIFO, so
// every batch sent to this worker before the stop has arrived too.
func (w *Worker) maybeAckStop() error {
	m := w.stop
	if m == nil || w.markers[m.Epoch] < len(m.Live)-1 {
		return nil
	}
	w.stop = nil
	// The markers of this and earlier epochs are spent; one that a dead peer
	// sent late goes with the next StopAck.
	maps.DeleteFunc(w.markers, func(e int32, _ int) bool { return e <= m.Epoch })
	return w.conn.Send(protocol.ControllerNode, &protocol.StopAck{Epoch: m.Epoch, W: w.id})
}

// onFinish drops a query's live state, keeping its vertex set for future
// scope moves and its signature for the window's statistics.
func (w *Worker) onFinish(m *protocol.QueryFinish) {
	qs, ok := w.queries[m.Q]
	delete(w.queries, m.Q)
	delete(w.early, m.Q)
	fs := &finishedScope{q: m.Q, at: w.cfg.Clock()}
	w.remember(fs)
	if !ok {
		return
	}
	fs.verts = make(map[graph.VertexID]bool, qs.data.len())
	for _, v := range qs.data.keys {
		fs.verts[v] = true
	}
	fs.sig = freezeSig(qs.sig)
	w.free(qs.sig)
	w.free(qs.data)
	for _, box := range qs.inbox {
		w.free(box)
	}
}

// rememberedScopes caps finishOrder: a move directive names a query of the
// window its plan started from, at most 333 finishes old (measured) when run.
const rememberedScopes = 8 * protocol.WindowQueries

// remember appends fs to the finish order and forgets what ScopeTTL or the cap excludes.
func (w *Worker) remember(fs *finishedScope) {
	w.finished[fs.q] = fs
	w.finishOrder = append(w.finishOrder, fs)
	for fs.at.Sub(w.finishOrder[0].at) > w.cfg.ScopeTTL || len(w.finishOrder) > rememberedScopes {
		if old := w.finishOrder[0]; w.finished[old.q] == old {
			delete(w.finished, old.q)
		}
		w.finishOrder[0] = nil
		w.finishOrder = w.finishOrder[1:]
	}
}

// window returns the newest finished queries: the controller's monitoring
// window, since QueryFinish is broadcast in the order that one fills.
func (w *Worker) window() []*finishedScope {
	return w.finishOrder[max(0, len(w.finishOrder)-protocol.WindowQueries):]
}

// pairs estimates |LS(q) ∩ LS(q2)| for the pairs the monitoring window holds
// — the worker-side transformation of low-level vertex knowledge into the
// high-level intersection function Iw of Sec. 3.4, computed when the
// controller pulls it. Each windowed scope is paired with the ones that
// finished before it and with the live queries, in ascending id, so a report
// is the same on every run. Finished partners matter most: queries of one
// hotspot rarely overlap in time, and these temporal chains let Q-cut's
// clustering move a hotspot as a unit.
//
// Each estimate is Σ_block min over the two signatures, taken in one pass
// over the partner's blocks against the windowed scope scattered into
// w.scratch.
func (w *Worker) pairs() []protocol.IntersectionStat {
	// Every scope's vertices are below len(w.owner), which grows with the
	// graph (onDeltaBatch).
	if n := len(w.owner)>>sigShift + 1; len(w.scratch) < n {
		w.scratch = make([]int32, n)
	}
	scratch := w.scratch
	live := slices.Sorted(maps.Keys(w.queries))
	win := w.window()
	var out []protocol.IntersectionStat
	for i, fs := range win {
		if len(fs.sig) == 0 {
			continue // nothing of it here, or moved away
		}
		for _, b := range fs.sig {
			scratch[b.blk] = b.n
		}
		for _, old := range win[:i] {
			var shared int32
			for _, b := range old.sig {
				shared += min(scratch[b.blk], b.n)
			}
			if shared > 0 {
				out = append(out, protocol.IntersectionStat{Q1: fs.q, Q2: old.q, Shared: shared})
			}
		}
		for _, q2 := range live {
			var shared int32
			sig := w.queries[q2].sig
			for i, blk := range sig.keys {
				shared += min(scratch[blk], int32(sig.vals[i]))
			}
			if shared > 0 {
				out = append(out, protocol.IntersectionStat{Q1: fs.q, Q2: q2, Shared: shared})
			}
		}
		for _, b := range fs.sig {
			scratch[b.blk] = 0
		}
	}
	return out
}
