// Package worker implements the Q-Graph worker layer (Fig. 2 of the
// paper): low-level, vertex-centric graph processing with local knowledge.
// A worker owns a partition of the vertices, executes the vertex functions
// of all queries over its partition superstep by superstep, batches
// messages to remote vertices, tracks each query's local scope LS(q,w),
// and cooperates with the controller through the barrier protocol.
//
// The worker's half of the hybrid barrier (Sec. 3.3) is one machine with no
// I/O and no clock (barrier.go): when a released superstep may run, the
// runs whose workers release the next one themselves (of one worker, the
// local query barrier) and narrow themselves, when the controller is owed
// a report (at a run's edges), what becomes of a vertex batch, and the
// STOP/START drain. The controller's half is its round
// (internal/controller).
//
// A worker is a single event loop over its transport inbox, a pump over two
// entries: Handle takes one message, Step runs one queued superstep. All
// state is confined to the goroutine that calls them.
package worker

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
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
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// queryState is the worker-local state of one query: its private vertex
// values (the local query scope) and pending messages, in one table.
type queryState struct {
	spec query.Spec
	prog query.Program
	// view is the immutable graph snapshot this query computes against:
	// the worker's view at ExecuteQuery (checked to be spec.PinVersion),
	// held until the query finishes. Batches committed at later versions
	// are invisible to it — MVCC snapshot isolation, which is what lets
	// commits land without quiescing.
	view *delta.View

	// verts holds the query-private value of every vertex the query touched
	// on this worker, LS(q, w), and every combined message not consumed yet.
	verts *vertices
	// sig is the scope's signature (see freezeSig) while it still grows, keyed
	// by block; newBlocks are the blocks that entered it since the last
	// barrier report.
	sig       *table[float64]
	newBlocks []int32
	// computeNS accumulates wall time spent in computeStep since the last
	// barrier report; it ships to the controller on BarrierSynch so the
	// query's trace can attribute superstep time per worker. processed
	// counts the vertices computed over the same supersteps.
	computeNS int64
	processed int32
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
	// bar is the worker's half of the hybrid barrier (barrier.go).
	bar barrier

	// joining marks a respawned worker that has said hello and must ignore
	// all traffic addressed to its dead predecessor until the controller's
	// PartitionGrant.
	joining bool
	// replayedOps counts the operations the latest PartitionGrant replayed
	// to rebuild this worker's view — with checkpointing, O(ops since the
	// checkpoint), not O(history). Atomic: tests and harnesses read it
	// while the worker runs.
	replayedOps atomic.Int64

	// outBuf[dst] stages the running superstep's emissions to worker dst.
	outBuf []*table[float64]
	// The free lists of the tables flushed out buffers and finished queries
	// give back: growing fresh ones was half of what a query allocated.
	tables       []*table[float64]
	vertexTables []*vertices
	// bits is SortBlocks' bitmap, zero between calls.
	bits []uint64
	// emitErr is the first error of a superstep's local emissions.
	emitErr error
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
		bar:      newBarrier(cfg.ID, cfg.K),
		outBuf:   make([]*table[float64], cfg.K),
		joining:  cfg.Rejoin,
	}
	return w, nil
}

// Run processes the inbox until Shutdown arrives or the inbox closes.
// Incoming messages take priority; between messages the worker executes
// one queued superstep per turn. It returns the first fatal error (nil on
// clean shutdown, faultpoint.ErrKilled on an injected crash — after which
// the worker stops reading its inbox entirely, like a dead process would),
// unless the error is the network's and the controller's Shutdown follows
// (see endsInShutdown).
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
		select {
		case env, ok = <-inbox:
		default:
			ran, err := w.Step()
			if err != nil {
				return err
			}
			if ran {
				continue
			}
			env, ok = <-inbox
		}
		if !ok {
			return nil
		}
		if stop, err := w.Handle(env); stop || err != nil {
			if err != nil && endsInShutdown(err, inbox) {
				return nil
			}
			return err
		}
	}
}

// shutdownGrace bounds the wait of endsInShutdown.
const shutdownGrace = time.Second

// endsInShutdown reports whether err, a reply to the controller that failed
// on the network, is the end of the run: the controller's Shutdown arrives
// within shutdownGrace. A stopping controller sends Shutdown as its last
// frame and exits, so a Pong or an ack to a message it sent just before can
// meet a closed listener. Messages queued ahead of the Shutdown go unread.
// Without a Shutdown the controller is gone, and err stays fatal.
func endsInShutdown(err error, inbox <-chan transport.Envelope) bool {
	var ne *net.OpError
	if !errors.As(err, &ne) {
		return false
	}
	grace := time.After(shutdownGrace)
	for {
		select {
		case env, ok := <-inbox:
			if !ok {
				return false
			}
			if _, stop := env.Msg.(*protocol.Shutdown); stop {
				return true
			}
		case <-grace:
			return false
		}
	}
}

// fatal wraps genuine errors with the worker id; an injected kill passes
// through unwrapped so harnesses can recognize it.
func (w *Worker) fatal(err error) error {
	if err == nil || err == faultpoint.ErrKilled {
		return err
	}
	return fmt.Errorf("worker %d: %w", w.id, err)
}

// Step runs the oldest queued superstep; ran is false when none is queued.
// An error is fatal, as Handle's is.
func (w *Worker) Step() (ran bool, err error) {
	q, step, ok := w.bar.run()
	if !ok {
		return false, nil
	}
	return true, w.fatal(w.stepOnce(q, step))
}

// Handle processes one message. stop reports a Shutdown. An error is fatal:
// the worker must not be driven further (faultpoint.ErrKilled is an
// injected crash).
func (w *Worker) Handle(env transport.Envelope) (stop bool, err error) {
	if w.joining {
		// A rejoining worker sees the stale traffic addressed to its dead
		// predecessor until the controller admits it back; only its own
		// grant (and liveness probes, and a shutdown) are meaningful.
		switch m := env.Msg.(type) {
		case *protocol.PartitionGrant:
			if m.Rejoin {
				err = w.onPartitionGrant(m)
			}
		case *protocol.Ping:
			err = w.conn.Send(protocol.ControllerNode, &protocol.Pong{Seq: m.Seq, W: w.id})
		case *protocol.Shutdown:
			return true, nil
		}
		return false, w.fatal(err)
	}
	switch m := env.Msg.(type) {
	case *protocol.ExecuteQuery:
		err = w.onExecute(m)
	case *protocol.BarrierReady:
		err = w.onReady(m)
	case *protocol.QueryFinish:
		w.onFinish(m)
	case *protocol.StatsPull:
		err = w.conn.Send(protocol.ControllerNode, &protocol.StatsReport{Seq: m.Seq, W: w.id, Pairs: w.pairs()})
	case *protocol.VertexBatch:
		err = w.onVertexBatch(m)
	case *protocol.GlobalStop:
		err = w.onGlobalStop(m)
	case *protocol.StopMarker:
		err = w.ackStop(w.bar.marker(m.Epoch))
	case *protocol.MoveScope:
		err = w.onMoveScope(m)
	case *protocol.ScopeData:
		err = w.onScopeData(m)
	case *protocol.DeltaBatch:
		err = w.onDeltaBatch(m)
	case *protocol.Ping:
		err = w.conn.Send(protocol.ControllerNode, &protocol.Pong{Seq: m.Seq, W: w.id})
	case *protocol.PartitionGrant:
		err = w.onRecover(m)
	case *protocol.GlobalStart:
		err = w.onGlobalStart(m)
	case *protocol.Shutdown:
		return true, nil
	default:
		err = fmt.Errorf("unexpected message %T", env.Msg)
	}
	return false, w.fatal(err)
}

// checkIDs fails unless every vertex of vs indexes the ownership table and
// every worker of ws is one of the K: ids off the wire, which the worker
// indexes with.
func (w *Worker) checkIDs(vs []graph.VertexID, ws []partition.WorkerID) error {
	for _, v := range vs {
		if v < 0 || int(v) >= len(w.owner) {
			return fmt.Errorf("vertex %d out of range [0,%d)", v, len(w.owner))
		}
	}
	for _, o := range ws {
		if int(o) >= w.k {
			return fmt.Errorf("worker %d out of range [0,%d)", o, w.k)
		}
	}
	return nil
}

// onGlobalStart applies the ownership delta of a global barrier's moves and
// resumes.
func (w *Worker) onGlobalStart(m *protocol.GlobalStart) error {
	if len(m.Owners) != len(m.Vertices) {
		return fmt.Errorf("global start: %d owners for %d vertices", len(m.Owners), len(m.Vertices))
	}
	if err := w.checkIDs(m.Vertices, m.Owners); err != nil {
		return fmt.Errorf("global start: %w", err)
	}
	for i, v := range m.Vertices {
		w.owner[v] = m.Owners[i]
	}
	w.bar.start()
	return nil
}

// onRecover resets this surviving worker into recovery generation m.Gen.
// All live query state is dropped (the controller re-executes the affected
// queries from superstep 0), so is a StopAck still waiting for markers, and
// the ownership map is replaced wholesale with the controller's copy.
// Remembered finished scopes survive: their signatures name blocks, not
// owners, and keep Q-cut's hotspot history useful.
func (w *Worker) onRecover(m *protocol.PartitionGrant) error {
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
	return w.resetForRecovery(m.Gen, m.Owner)
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
	return w.resetForRecovery(m.Gen, m.Owner)
}

// ReplayedOps returns the operations the latest PartitionGrant replayed to
// rebuild this worker's view (0 before any rejoin). Safe concurrently with
// Run; tests assert it stays below ops-since-checkpoint.
func (w *Worker) ReplayedOps() int64 { return w.replayedOps.Load() }

// resetForRecovery clears every piece of in-flight state that references
// the pre-recovery generation (live queries and the barrier, see
// barrier.reset), adopts the controller's ownership map and acknowledges.
func (w *Worker) resetForRecovery(gen int32, owner []partition.WorkerID) error {
	if len(owner) != w.view.NumVertices() {
		return fmt.Errorf("recovery ownership covers %d of %d vertices", len(owner), w.view.NumVertices())
	}
	if err := w.checkIDs(nil, owner); err != nil {
		return fmt.Errorf("recovery ownership: %w", err)
	}
	w.bar.reset(gen)
	w.owner = append(w.owner[:0], owner...)
	w.queries = make(map[query.ID]*queryState)
	w.outBuf = make([]*table[float64], w.k)
	return w.conn.Send(protocol.ControllerNode, &protocol.PartitionAck{Gen: gen, W: w.id, Version: w.view.Version()})
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
	if err := w.checkIDs([]graph.VertexID{m.Spec.Source}, nil); err != nil {
		return fmt.Errorf("query %d source: %w", m.Spec.ID, err)
	}
	qs := &queryState{
		spec:  m.Spec,
		prog:  prog,
		view:  w.view,
		verts: w.vertexTable(),
		sig:   w.table(),
	}
	for _, act := range prog.Init(qs.view, m.Spec) {
		if w.owner[act.V] == w.id {
			_ = qs.verts.post(0, act.V, act.Msg, prog) // superstep 0 of an empty table cannot fail
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
	for _, b := range w.bar.execute(m.Spec.ID, protocol.Rules{Monotone: prog.Monotone(), MaxIters: m.Spec.MaxIters}) {
		if err := w.merge(qs, b); err != nil {
			return err
		}
	}
	return nil
}

// table takes an empty table off the free list.
func (w *Worker) table() *table[float64] {
	return pop(&w.tables, newTable[float64])
}

// free empties t onto the free list; the caller must hold no other reference.
func (w *Worker) free(t *table[float64]) {
	t.reset()
	w.tables = append(w.tables, t)
}

// vertexTable takes an empty query table off its free list.
func (w *Worker) vertexTable() *vertices {
	return pop(&w.vertexTables, func() *vertices { return &vertices{table: *newTable[vertex]()} })
}

func pop[T any](free *[]*T, fresh func() *T) *T {
	n := len(*free)
	if n == 0 {
		return fresh()
	}
	t := (*free)[n-1]
	*free = (*free)[:n-1]
	return t
}

// touch enters the vertex of entry i into the scope, if it is not in it,
// and counts it into the scope signature.
func (qs *queryState) touch(i int) {
	vs := qs.verts
	if vs.vals[i].has {
		return
	}
	vs.vals[i].has = true
	vs.scope++
	blk := protocol.BlockOf(vs.keys[i])
	j, had := qs.sig.ref(graph.VertexID(blk))
	if !had { // no block stays at zero
		qs.newBlocks = append(qs.newBlocks, blk)
	}
	qs.sig.vals[j]++
}

// onReady hands a release to the barrier. Peers, ids off the wire, must
// name workers of the K and this one among them.
func (w *Worker) onReady(m *protocol.BarrierReady) error {
	if err := w.checkIDs(nil, m.Peers); err != nil {
		return fmt.Errorf("query %d release: %w", m.Q, err)
	}
	if m.Peers != nil && !slices.Contains(m.Peers, w.id) {
		return fmt.Errorf("query %d release: peers %v without worker %d", m.Q, m.Peers, w.id)
	}
	return w.bar.ready(m.Q, release{step: m.Step, expect: m.Expect, drained: m.Drained,
		bestGoal: m.BestGoal, peers: m.Peers})
}

// onVertexBatch merges the batches the barrier delivers, and sends the
// report a peer's summary made due.
func (w *Worker) onVertexBatch(m *protocol.VertexBatch) error {
	deliver, rep, err := w.bar.batch(m, w.finished[m.Q] != nil)
	if err != nil {
		return err
	}
	if rep.due {
		w.sendSynch(m.Q, w.queries[m.Q], rep)
	}
	if !deliver {
		return nil
	}
	return w.merge(w.queries[m.Q], m)
}

// merge combines a delivered batch's entries into the lane of the
// superstep that consumes them. Ownership changes only while the network is
// drained, so each names a vertex this worker owns. One that does not is a
// protocol error: forwarding it would count against a peer's Expect that
// no report announced.
func (w *Worker) merge(qs *queryState, m *protocol.VertexBatch) error {
	for _, e := range m.Entries {
		if e.To < 0 || int(e.To) >= len(w.owner) || w.owner[e.To] != w.id {
			return fmt.Errorf("query %d: batch of step %d from worker %d names vertex %d, not owned here", m.Q, m.Step, m.From, e.To)
		}
		if err := qs.verts.post(m.Step+1, e.To, e.Val, qs.prog); err != nil {
			return fmt.Errorf("query %d: batch of step %d from worker %d: %w", m.Q, m.Step, m.From, err)
		}
	}
	return nil
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
	if err := w.checkIDs(nil, m.NewOwners); err != nil {
		return fmt.Errorf("delta batch %d owners: %w", m.Version, err)
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
	return nil
}

// View exposes the worker's current graph view (tests assert version and
// topology convergence).
func (w *Worker) View() *delta.View { return w.view }

// ScopeSize is |LS(q, w)|: the vertices query q touched on this worker so
// far, 0 if q is not live here. Like View, it reads state the event loop
// owns: call it between events, from the goroutine that drives Step and
// Handle (the controller's simulator charges compute by it).
func (w *Worker) ScopeSize(q query.ID) int {
	if qs := w.queries[q]; qs != nil {
		return int(qs.verts.scope)
	}
	return 0
}

// onGlobalStop flushes every link into this worker with markers, which
// follow this worker's last vertex batch before GlobalStart on every link.
func (w *Worker) onGlobalStop(m *protocol.GlobalStop) error {
	if err := w.bar.stop(m.Epoch, len(m.Live)-1); err != nil {
		return err
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
	return w.ackStop(w.bar.ack())
}

// ackStop sends the StopAck of epoch if the barrier says it is due.
func (w *Worker) ackStop(epoch int32, due bool) error {
	if !due {
		return nil
	}
	return w.conn.Send(protocol.ControllerNode, &protocol.StopAck{Epoch: epoch, W: w.id})
}

// onFinish drops a query's live state and keeps its signature, for future
// scope moves and the window's statistics.
func (w *Worker) onFinish(m *protocol.QueryFinish) {
	qs, ok := w.queries[m.Q]
	delete(w.queries, m.Q)
	w.bar.finish(m.Q)
	fs := &finishedScope{q: m.Q, at: w.cfg.Clock()}
	w.remember(fs)
	if !ok {
		return
	}
	fs.sig = freezeSig(qs.sig)
	w.free(qs.sig)
	qs.verts.reset()
	w.vertexTables = append(w.vertexTables, qs.verts)
}
