package serve

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/obs"
	"qgraph/internal/obs/health"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/wal"
)

// Backend is what the serving layer needs from the engine.
// *controller.Controller satisfies it (use core.Engine's Controller()).
type Backend interface {
	// Schedule submits a query; the result arrives on the channel.
	Schedule(spec query.Spec) (<-chan controller.Result, error)
	// Cancel abandons a scheduled query (best effort).
	Cancel(q query.ID)
	// RepartitionEpoch counts executed repartitioning barriers. Placement
	// never changes an answer, so cached results outlive them.
	RepartitionEpoch() int64
	// GraphVersion counts committed mutation batches (the streaming-update
	// data plane).
	GraphVersion() uint64
	// OnCommit subscribes the result cache to commits: fn runs once per
	// committed version, in order, before GraphVersion reports it, with the
	// signature blocks of the vertices whose out-edges the batch changed.
	OnCommit(fn func(version uint64, blocks []int32))
	// GraphView returns a consistent snapshot of the current graph, used
	// to validate request specs (source/target ranges, POI tags).
	GraphView() graph.View
	// Mutate stages a batch of graph mutations; the result arrives once
	// the batch committed.
	Mutate(ops []delta.Op) (<-chan controller.MutationResult, error)
	// Health reports worker liveness for /healthz.
	Health() controller.Health
	// RecoveryStats reports worker-failure recovery counters for /stats.
	RecoveryStats() controller.RecoveryStats
	// ForceSnapshot cuts a checkpoint of the committed graph and truncates
	// the committed-op log (POST /admin/snapshot).
	ForceSnapshot() (snapshot.Result, error)
	// SnapshotStats reports checkpointing counters and the live op-log
	// size for /stats.
	SnapshotStats() snapshot.Stats
	// WALStats reports the durable write-ahead log's accounting for
	// /stats (Enabled=false when the deployment runs without a WAL).
	WALStats() wal.Stats
	// MVCCStats reports the commit pipeline's multi-version accounting:
	// live versions, pinned readers, sealed-but-undurable batches in flight.
	MVCCStats() controller.MVCCStats
}

// Config parameterises a Server. Zero values select sane defaults.
type Config struct {
	Backend Backend
	// GraphID identifies the loaded base graph on /stats (e.g. a hash of
	// the graph file).
	GraphID uint64

	Admit AdmitConfig
	// CacheSize / CacheTTL bound the result cache (default 4096 / 1m).
	CacheSize int
	CacheTTL  time.Duration
	// DefaultTimeout is the deadline of a request that names none
	// (default 30s); see maxTimeout for the cap. A request past its
	// deadline is answered 504 and its query cancelled on the engine.
	DefaultTimeout time.Duration
	// MaxAsyncResults caps retained async results (default 4096); async
	// submissions beyond it are rejected 429. This is the hard memory
	// bound — the admission pre-bounce is only advisory (cache-answerable
	// requests bypass it, and its check races the later Acquire).
	MaxAsyncResults int

	// Obs is the observability substrate: the tracer every /query request
	// roots its span tree in, the metrics registry /metrics serves, and
	// the structured logger. Nil creates a private one (endpoints always
	// work); share one instance with the controller so engine spans land
	// in the same trees.
	Obs *obs.Obs
	// NoTrace disables per-request tracing while keeping /metrics and the
	// trace endpoints alive (used to measure tracing overhead).
	NoTrace bool
	// Monitor is the active health layer (internal/obs/health), shared
	// with the engine. The serving layer serves its event log on /events,
	// and its straggler and stall detectors drive /healthz from ok to
	// degraded. Nil disables both.
	Monitor *health.Monitor
	// NodeID and Role identify this node on the X-QGraph-Node response
	// header ("<id>/<role>"), so a client behind a load balancer can tell
	// which node served any response. Empty disables the header.
	NodeID string
	Role   string
	// Clock abstracts time for tests; nil means time.Now.
	Clock func() time.Time
}

// VersionHeader carries the committed graph version a response reflects:
// on a /query answer that was executed (or coalesced onto an execution) the
// version it was computed at; on a cache hit the newest version the answer
// is known to hold at — every batch since it was computed missed its scope —
// which is never below a version any client was already told of; everywhere
// else the version committed when the response was written. Clients do
// read-your-writes by echoing the version their last mutation reported as
// ?min_version=.
const VersionHeader = "X-QGraph-Version"

// TraceHeader carries a trace ID across HTTP hops. A node honors an
// inbound value (its spans join the caller's tree) and echoes the ID it
// used on the response, so the caller learns the ID even when the node
// generated one itself.
const TraceHeader = "X-QGraph-Trace-ID"

// NodeHeader identifies the node that produced a response as
// "<node-id>/<role>".
const NodeHeader = "X-QGraph-Node"

const (
	// maxTimeout caps an explicit timeout_ms, or DefaultTimeout where that
	// is longer: the default deadline must be reachable by an explicit
	// timeout_ms, and storePending relies on the cap bounding every request.
	maxTimeout = 2 * time.Minute
	// resultTTL is how long an async result stays retrievable.
	resultTTL = time.Minute
)

func (c *Config) fill() error {
	if c.Backend == nil {
		return fmt.Errorf("serve: nil backend")
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxAsyncResults <= 0 {
		c.MaxAsyncResults = 4096
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Obs == nil {
		c.Obs = obs.New(nil)
	}
	return nil
}

// timeout is the deadline of a request that asks for ms milliseconds (0
// asks for DefaultTimeout), capped as maxTimeout says.
func (c *Config) timeout(ms int64) time.Duration {
	limit := max(maxTimeout, c.DefaultTimeout)
	switch {
	case ms <= 0:
		return c.DefaultTimeout
	case ms >= int64(limit/time.Millisecond):
		// Compared in milliseconds before converting: a huge timeout_ms
		// would overflow the nanosecond conversion into a negative
		// duration and defeat the cap.
		return limit
	}
	return time.Duration(ms) * time.Millisecond
}

// Server is the HTTP front-end over one Q-Graph controller.
type Server struct {
	cfg    Config
	admit  *Admission
	cache  *Cache
	ctr    *Counters
	obs    *obs.Obs
	tracer *obs.Tracer // nil when NoTrace: every span op degrades to a no-op
	nextID atomic.Int64

	reqSeconds    *obs.Histogram
	engineSeconds *obs.Histogram

	mu        sync.Mutex
	results   map[int64]*asyncResult
	lastPrune time.Time

	draining atomic.Bool
	wg       sync.WaitGroup
}

// asyncResult is a stored outcome of an async (wait-free) request.
type asyncResult struct {
	done    bool
	code    int
	resp    QueryResponse
	errBody *errorResponse
	expires time.Time
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		admit:   NewAdmission(cfg.Admit, cfg.Clock),
		cache:   NewCache(cfg.CacheSize, cfg.CacheTTL, cfg.Clock),
		ctr:     newCounters(cfg.Clock()),
		obs:     cfg.Obs,
		results: make(map[int64]*asyncResult),
	}
	if !cfg.NoTrace {
		s.tracer = cfg.Obs.T()
	}
	s.registerMetrics()
	// The cache hears of every commit from here on, and starts at the
	// version the engine already holds.
	cfg.Backend.OnCommit(s.onCommit)
	s.onCommit(cfg.Backend.GraphVersion(), nil)
	return s, nil
}

// Counters exposes the serving counters (shared with /stats).
func (s *Server) Counters() *Counters { return s.ctr }

// Handler returns the HTTP API:
//
//	POST /query           run a query (or enqueue it with "async": true)
//	GET  /result/{id}     fetch an async query's result
//	POST /mutate          apply a batch of streaming graph updates
//	POST /admin/snapshot  cut a checkpoint and truncate the op log
//	GET  /healthz         liveness (503 while draining or degraded)
//	GET  /stats           serving, admission, cache, and engine counters
//	GET  /metrics         the same counters in Prometheus text format
//	GET  /trace/{query_id} span tree + phase attribution of one query
//	GET  /trace/by-id/{trace_id}  the same, looked up by propagated trace ID
//	GET  /traces          slowest completed traces (?slowest=N&min_ms=X)
//	GET  /events          health event log (?type=...&severity=...&n=N)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /result/{id}", s.handleResult)
	mux.HandleFunc("POST /mutate", s.handleMutate)
	mux.HandleFunc("POST /admin/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace/{query_id}", s.handleTrace)
	mux.HandleFunc("GET /trace/by-id/{trace_id}", s.handleTraceByID)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /events", s.handleEvents)
	node := s.cfg.NodeID
	if s.cfg.Role != "" {
		node += "/" + s.cfg.Role
	}
	if node == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(NodeHeader, node)
		mux.ServeHTTP(w, r)
	})
}

// onCommit evicts what committed version v touched (Backend.OnCommit).
func (s *Server) onCommit(v uint64, blocks []int32) {
	s.ctr.Invalidated.Add(int64(s.cache.Commit(v, blocks)))
}

// Drain stops accepting new queries and waits for in-flight ones (both
// sync and async) to finish, or for ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	// The mutex orders the store against begin(): once Drain holds it,
	// every later request observes draining and is rejected, so wg cannot
	// grow from zero concurrently with Wait.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---------------------------------------------------------------------------
// Wire types

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Kind is sssp | bfs | poi | pagerank.
	Kind   string `json:"kind"`
	Source int64  `json:"source"`
	// Target is the end vertex for point-to-point SSSP/BFS; omitted or
	// null floods from the source.
	Target   *int64  `json:"target,omitempty"`
	MaxIters int     `json:"max_iters,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	// TimeoutMS overrides the server's default request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses result-cache lookup and storage.
	NoCache bool `json:"no_cache,omitempty"`
	// Async returns immediately with an id; fetch via GET /result/{id}.
	Async bool `json:"async,omitempty"`
}

// QueryResponse is the result representation of both /query and /result.
type QueryResponse struct {
	// ID is the engine query id for synchronous responses, or the opaque
	// retrieval token for async ones (pass it to GET /result/{id}).
	ID     int64  `json:"id"`
	Kind   string `json:"kind"`
	Status string `json:"status"` // "done" | "pending"
	// Value is the query result; null when no goal vertex was reached.
	Value      *float64 `json:"value"`
	Reason     string   `json:"reason,omitempty"`
	Supersteps int      `json:"supersteps"`
	Touched    int      `json:"touched"`
	Workers    int      `json:"workers"`
	CacheHit   bool     `json:"cache_hit,omitempty"`
	Coalesced  bool     `json:"coalesced,omitempty"`
	// LatencyMS is this request's wall time; for cache hits it is the
	// lookup time, while EngineMS always reports the executing run.
	LatencyMS   float64 `json:"latency_ms"`
	EngineMS    float64 `json:"engine_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// TraceID is the span tree this request recorded into — inbound
	// X-QGraph-Trace-ID when one was propagated, else locally generated.
	// Feed it to GET /trace/by-id/{trace_id} (0 when tracing is off).
	TraceID uint64 `json:"trace_id,omitempty"`
	// version is the graph version the answer holds at (VersionHeader):
	// the pin of the run that produced it, or for a cache hit the cache's
	// version. It goes out as the X-QGraph-Version header, not in the body.
	version uint64
}

type errorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Serve     CountersSnapshot `json:"serve"`
	Admission AdmitStats       `json:"admission"`
	Cache     CacheStats       `json:"cache"`
	Engine    struct {
		RepartitionEpoch int64  `json:"repartition_epoch"`
		GraphID          uint64 `json:"graph_id"`
		GraphVersion     uint64 `json:"graph_version"`
		Vertices         int    `json:"vertices"`
		Edges            int    `json:"edges"`
		Degraded         bool   `json:"degraded,omitempty"`
		Recovering       bool   `json:"recovering,omitempty"`
		DeadWorkers      []int  `json:"dead_workers,omitempty"`
	} `json:"engine"`
	// Recovery reports the worker-failure recovery counters: completed
	// episodes, handoffs vs rejoins, queries re-executed, and the latest
	// episode's wall time.
	Recovery controller.RecoveryStats `json:"recovery"`
	// Snapshot reports checkpointing: snapshots cut, the last checkpoint
	// version, ops truncated, and the retained committed-op log size —
	// bounded by the snapshot policy however long mutations stream.
	Snapshot snapshot.Stats `json:"snapshot"`
	// WAL reports the durable write-ahead log: the version chain on disk,
	// appends and fsync latency, and truncation keeping pace with
	// checkpoints. Enabled=false when the deployment runs without one
	// (see README "Durability modes").
	WAL wal.Stats `json:"wal"`
	// MVCC reports the commit pipeline's multi-version state: how many
	// immutable graph versions are live, how many readers pin them, and
	// how many sealed batches await their group fsync.
	MVCC controller.MVCCStats `json:"mvcc"`
}

// MutateOp is one operation of a POST /mutate batch.
type MutateOp struct {
	// Op is add_edge | remove_edge | set_weight | add_vertex.
	Op     string  `json:"op"`
	From   int64   `json:"from,omitempty"`
	To     int64   `json:"to,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// MutateRequest is the POST /mutate body. The whole batch commits
// atomically as the engine's next graph version.
type MutateRequest struct {
	Ops []MutateOp `json:"ops"`
	// TimeoutMS bounds the wait for the commit (default: the server's
	// request default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MutateResponse reports a committed batch.
type MutateResponse struct {
	// Version is the graph version the ops landed in.
	Version uint64 `json:"version"`
	// Applied counts ops that changed the graph; NoOps ones that
	// referenced a non-existent edge.
	Applied   int     `json:"applied"`
	NoOps     int     `json:"noops"`
	LatencyMS float64 `json:"latency_ms"`
}

// ---------------------------------------------------------------------------
// Handlers

// begin registers one request with the drain WaitGroup, or reports that
// the server is draining. Every true return must be paired with wg.Done.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.stampVersion(w)
	if !s.begin() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	defer s.wg.Done()
	// ?min_version= demands freshness: a node that has not applied that
	// committed version yet must refuse rather than answer from older
	// state (412; the stamped header tells the client how far behind).
	// Checked before execution — the version only ever advances, so an
	// admitted request can never be served below the demanded floor.
	if raw := r.URL.Query().Get("min_version"); raw != "" {
		min, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad min_version= value"})
			return
		}
		if v := s.cfg.Backend.GraphVersion(); v < min {
			writeJSON(w, http.StatusPreconditionFailed, errorResponse{
				Error: fmt.Sprintf("applied version %d below requested min_version %d (lagging; retry, or read the primary)", v, min)})
			return
		}
	}
	var req QueryRequest
	// Requests are tiny; bound the body so one client cannot buffer
	// arbitrary amounts of memory into the decoder.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	spec, err := s.specOf(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Cross-hop propagation: an inbound trace ID becomes this request's
	// trace ID, so node-side spans land in the caller's tree. Echoed on
	// the response either way — when the node generated the ID itself,
	// the echo is how the client learns it.
	if raw := r.Header.Get(TraceHeader); raw != "" {
		if id, err := strconv.ParseUint(raw, 10, 64); err == nil {
			spec.TraceID = id
		}
	}
	if spec.TraceID != 0 {
		w.Header().Set(TraceHeader, strconv.FormatUint(spec.TraceID, 10))
	}
	timeout := s.cfg.timeout(req.TimeoutMS)
	s.ctr.Received.Add(1)

	if req.Async {
		// Bounce a hopeless submission before allocating a result slot
		// and goroutine: an async flood against a full queue would
		// otherwise retain a stored rejection per request for ResultTTL.
		// A request the cache can answer (or coalesce) consumes no engine
		// capacity, so it is admitted even with a full queue — matching
		// the sync path, which consults the cache before admission.
		if s.admit.Full() {
			if req.NoCache || !s.cache.Peek(KeyOf(spec)) {
				s.ctr.Rejected.Add(1)
				w.Header().Set("Retry-After", s.retryAfter())
				writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "admission queue full"})
				return
			}
		}
		// Results are retrieved by an unguessable token, not the sequential
		// engine id: requests carry no authentication, so enumerable ids
		// would let any client read other clients' results.
		token := newResultToken()
		spec.ID = query.ID(s.nextID.Add(1))
		if !s.storePending(token) {
			s.ctr.Rejected.Add(1)
			w.Header().Set("Retry-After", s.retryAfter())
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "async result store full"})
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			resp, code, errBody := s.execute(ctx, spec, req)
			resp.ID = token
			s.storeDone(token, resp, code, errBody)
		}()
		writeJSON(w, http.StatusAccepted, QueryResponse{
			ID: token, Kind: spec.Kind.String(), Status: "pending", Value: nil,
		})
		return
	}

	spec.ID = query.ID(s.nextID.Add(1))
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	resp, code, errBody := s.execute(ctx, spec, req)
	if resp.TraceID != 0 {
		w.Header().Set(TraceHeader, strconv.FormatUint(resp.TraceID, 10))
	}
	if errBody != nil {
		// Re-stamp: versions committed while the request waited move the
		// header forward, never backward.
		s.stampVersion(w)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfter())
		}
		writeJSON(w, code, *errBody)
		return
	}
	// An answer reports the version it holds at, not what is committed now:
	// commits that landed while it ran do not change what it was computed
	// at, and a cached one was checked against every commit up to its own.
	w.Header().Set(VersionHeader, strconv.FormatUint(resp.version, 10))
	writeJSON(w, code, resp)
}

// stampVersion sets (or refreshes) the X-QGraph-Version response header
// from the backend's committed graph version.
func (s *Server) stampVersion(w http.ResponseWriter) {
	w.Header().Set(VersionHeader, strconv.FormatUint(s.cfg.Backend.GraphVersion(), 10))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad result id"})
		return
	}
	s.mu.Lock()
	s.pruneResults(false)
	var ar asyncResult
	found := s.results[id]
	if found != nil {
		ar = *found // storeDone fills the entry under mu
	}
	s.mu.Unlock()
	switch {
	case found == nil:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown or expired result id"})
	case !ar.done:
		writeJSON(w, http.StatusOK, QueryResponse{ID: id, Status: "pending", Value: nil})
	case ar.errBody != nil:
		writeJSON(w, ar.code, *ar.errBody)
	default:
		writeJSON(w, ar.code, ar.resp)
	}
}

// healthzResponse is the GET /healthz body. Operators watch GraphVersion
// and RepartitionEpoch here to observe mutation and adaptation progress
// without pulling full /stats.
//
// Status transitions on worker failure: "ok" → "recovering" (an episode
// is reassigning partitions and re-executing queries; still 200, because
// requests keep completing — just slower) → "ok" again. "degraded" (503)
// is either terminal (every worker is dead) or detector-driven: the
// health layer's watchdogs flag persistent stragglers and stalled
// barriers, and /healthz flips ok→degraded while the condition holds —
// the active complement to binary liveness. DeadWorkers lists
// currently-fenced workers; after a handoff recovery it keeps naming the
// permanently lost ones while status is back to "ok".
type healthzResponse struct {
	Status           string `json:"status"` // ok | recovering | draining | degraded
	GraphVersion     uint64 `json:"graph_version"`
	RepartitionEpoch int64  `json:"repartition_epoch"`
	DeadWorkers      []int  `json:"dead_workers,omitempty"`
	// Stragglers lists workers the straggler watchdog currently flags;
	// Stalled marks an active barrier/superstep deadline breach.
	Stragglers []int `json:"stragglers,omitempty"`
	Stalled    bool  `json:"stalled,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
	// WALOpsSinceCheckpoint counts committed ops covered only by the WAL
	// (no durable checkpoint yet) — the replay a restart right now would
	// pay. Growth without bound means checkpointing has stalled.
	WALOpsSinceCheckpoint int `json:"wal_ops_since_checkpoint"`
	// SecondsSinceSnapshotCut is the age of the newest completed
	// checkpoint cut; -1 until the first cut completes.
	SecondsSinceSnapshotCut float64 `json:"seconds_since_snapshot_cut"`
}

// handleMutate ingests one batch of streaming graph updates. The batch is
// staged on the engine, committed atomically as its next graph version,
// and the response reports the resulting graph version — by which time the
// result cache has dropped every answer whose scope the batch touched, so
// no post-commit query is answered from pre-commit state.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	s.stampVersion(w)
	if !s.begin() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	defer s.wg.Done()
	started := s.cfg.Clock()
	var req MutateRequest
	// Mutation batches are bigger than queries but still bounded: 1 MiB
	// holds tens of thousands of ops.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	ops, err := opsOf(req.Ops)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Pre-check vertex ranges against the live view so a plainly bad op is
	// a 400, not a 503. The engine re-validates against its staged view
	// (which may already hold add_vertex ops), so this is advisory only —
	// an op racing a concurrent growth commit still resolves there.
	if err := delta.ValidateOps(ops, s.cfg.Backend.GraphView().NumVertices()); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	timeout := s.cfg.timeout(req.TimeoutMS)
	s.ctr.MutationOps.Add(int64(len(ops)))
	ch, err := s.cfg.Backend.Mutate(ops)
	if err != nil {
		s.ctr.MutationsFailed.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "mutate: " + err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	select {
	case res := <-ch:
		if res.Err != nil {
			s.ctr.MutationsFailed.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "mutate: " + res.Err.Error()})
			return
		}
		s.ctr.MutationsApplied.Add(int64(res.Applied))
		s.ctr.MutationNoOps.Add(int64(res.NoOps))
		s.ctr.MutationBatches.Add(1)
		// The commit's own version is the read-your-writes token: echo it
		// as ?min_version= to guarantee reads reflect this batch.
		w.Header().Set(VersionHeader, strconv.FormatUint(res.Version, 10))
		writeJSON(w, http.StatusOK, MutateResponse{
			Version:   res.Version,
			Applied:   res.Applied,
			NoOps:     res.NoOps,
			LatencyMS: durMS(s.cfg.Clock().Sub(started)),
		})
	case <-ctx.Done():
		// The batch stays staged and will still commit; only this caller
		// stops waiting (the result channel is buffered, nothing leaks).
		s.ctr.MutationsFailed.Add(1)
		writeJSON(w, http.StatusGatewayTimeout,
			errorResponse{Error: "deadline exceeded waiting for commit (batch may still apply)"})
	}
}

// opsOf converts and bound-checks wire ops into engine ops. Exported via
// the wire format only; deeper validation (vertex ranges against the live
// graph) happens on the engine, where the authoritative view lives.
func opsOf(wire []MutateOp) ([]delta.Op, error) {
	if len(wire) == 0 {
		return nil, fmt.Errorf("empty ops")
	}
	ops := make([]delta.Op, len(wire))
	for i, mo := range wire {
		kind, err := delta.KindFromString(mo.Op)
		if err != nil {
			return nil, fmt.Errorf("op %d: unknown kind %q (want add_edge|remove_edge|set_weight|add_vertex)", i, mo.Op)
		}
		if mo.From < 0 || mo.From > math.MaxInt32 || mo.To < 0 || mo.To > math.MaxInt32 {
			return nil, fmt.Errorf("op %d: vertex id out of range", i)
		}
		if mo.Weight < 0 || math.IsNaN(mo.Weight) || mo.Weight > math.MaxFloat32 {
			return nil, fmt.Errorf("op %d: invalid weight %v", i, mo.Weight)
		}
		ops[i] = delta.Op{
			Kind:   kind,
			From:   graph.VertexID(mo.From),
			To:     graph.VertexID(mo.To),
			Weight: float32(mo.Weight),
		}
	}
	return ops, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Backend.SnapshotStats()
	resp := healthzResponse{
		Status:                  "ok",
		GraphVersion:            s.cfg.Backend.GraphVersion(),
		RepartitionEpoch:        s.cfg.Backend.RepartitionEpoch(),
		Recoveries:              s.cfg.Backend.RecoveryStats().Recoveries,
		WALOpsSinceCheckpoint:   snap.DeltaLogOps,
		SecondsSinceSnapshotCut: -1,
	}
	if snap.LastCutUnixNS > 0 {
		resp.SecondsSinceSnapshotCut = time.Since(time.Unix(0, snap.LastCutUnixNS)).Seconds()
	}
	code := http.StatusOK
	h := s.cfg.Backend.Health()
	resp.DeadWorkers = h.DeadWorkers
	hs := s.cfg.Monitor.Snapshot()
	resp.Stragglers = hs.Stragglers
	resp.Stalled = hs.Stalled
	switch {
	case h.Degraded:
		// Terminal: no live workers. Nothing will complete.
		resp.Status = "degraded"
		code = http.StatusServiceUnavailable
	case h.Recovering:
		// Requests still complete (deferred, then re-executed) — stay
		// green so load balancers keep routing; latency is the cost.
		resp.Status = "recovering"
	case hs.Degraded:
		// Detector-driven: a persistent straggler or a stalled barrier is
		// impairing service while every worker still answers heartbeats.
		resp.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	if s.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.Serve = s.ctr.Snapshot(s.cfg.Clock())
	resp.Admission = s.admit.Stats()
	resp.Cache = s.cache.Stats()
	view := s.cfg.Backend.GraphView()
	health := s.cfg.Backend.Health()
	resp.Engine.RepartitionEpoch = s.cfg.Backend.RepartitionEpoch()
	resp.Engine.GraphID = s.cfg.GraphID
	resp.Engine.GraphVersion = s.cfg.Backend.GraphVersion()
	resp.Engine.Vertices = view.NumVertices()
	resp.Engine.Edges = view.NumEdges()
	resp.Engine.Degraded = health.Degraded
	resp.Engine.Recovering = health.Recovering
	resp.Engine.DeadWorkers = health.DeadWorkers
	resp.Recovery = s.cfg.Backend.RecoveryStats()
	resp.Snapshot = s.cfg.Backend.SnapshotStats()
	resp.WAL = s.cfg.Backend.WALStats()
	resp.MVCC = s.cfg.Backend.MVCCStats()
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot triggers a checkpoint on demand (operators force one
// before maintenance, tests force one before a kill). The response is the
// engine's snapshot.Result: the covered version, whether a new snapshot
// was actually cut, whether it is durable on disk, and how many log ops
// the cut released.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	defer s.wg.Done()
	res, err := s.cfg.Backend.ForceSnapshot()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "snapshot: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// ---------------------------------------------------------------------------
// Execution path

// execute runs one admitted-or-coalesced query to completion and maps the
// outcome to an HTTP response. spec.ID is already assigned. It owns the
// request's trace: opened (and bound to the query id) before anything
// else so the controller and workers can extend the tree, finished on
// every return path so the ring's occupancy returns to baseline.
func (s *Server) execute(ctx context.Context, spec query.Spec, req QueryRequest) (QueryResponse, int, *errorResponse) {
	started := s.cfg.Clock()
	tr := s.beginTrace(&spec)
	resp, code, errBody := s.executeTraced(ctx, tr, spec, req, started)
	resp.TraceID = tr.ID()
	if errBody == nil {
		tr.Root().SetAttr("status", code)
	} else {
		tr.Root().SetAttr("error", errBody.Error)
	}
	s.tracer.Finish(tr)
	s.observeRequest(started,
		time.Duration(resp.EngineMS*float64(time.Millisecond)), errBody == nil)
	return resp, code, errBody
}

func (s *Server) executeTraced(ctx context.Context, tr *obs.Trace, spec query.Spec, req QueryRequest, started time.Time) (QueryResponse, int, *errorResponse) {
	key := KeyOf(spec)
	var flight *Flight
	if req.NoCache {
		flight = s.cache.Lead()
	} else {
		cacheSpan := tr.StartSpan(nil, "cache")
	lookup:
		for {
			out, f, state := s.cache.Begin(key)
			switch state {
			case BeginHit:
				s.ctr.CacheHits.Add(1)
				s.ctr.Completed.Add(1)
				resp := s.respFrom(spec, out, started, 0)
				resp.CacheHit = true
				cacheSpan.SetAttr("outcome", "hit")
				cacheSpan.End()
				return resp, http.StatusOK, nil
			case BeginJoin:
				select {
				case <-f.Done():
					if out, err := f.Result(); err == nil {
						s.ctr.Coalesced.Add(1)
						s.ctr.Completed.Add(1)
						resp := s.respFrom(spec, out, started, 0)
						resp.Coalesced = true
						cacheSpan.SetAttr("outcome", "coalesced")
						cacheSpan.End()
						return resp, http.StatusOK, nil
					}
					// The leader failed (rejected, expired, engine error).
					// Do not inherit its failure: race to lead the retry,
					// so admission decides for this caller too. Each round
					// promotes exactly one waiter, so this terminates.
					continue
				case <-ctx.Done():
					// Only this follower gives up; the leader keeps going.
					s.ctr.Expired.Add(1)
					cacheSpan.SetAttr("outcome", "join-timeout")
					cacheSpan.End()
					return QueryResponse{}, http.StatusGatewayTimeout,
						&errorResponse{Error: "deadline exceeded waiting for coalesced query"}
				}
			case BeginLead:
				// A real lookup miss; NoCache requests never looked and
				// must not skew the hit ratio's denominator.
				s.ctr.CacheMisses.Add(1)
				flight = f
				cacheSpan.SetAttr("outcome", "miss")
				cacheSpan.End()
				break lookup
			}
		}
	}

	admitSpan := tr.StartSpan(nil, "admission")
	release, wait, err := s.admit.Acquire(ctx)
	admitSpan.End()
	if err != nil {
		s.cache.Complete(flight, Outcome{}, err)
		if err == ErrQueueFull {
			s.ctr.Rejected.Add(1)
			return QueryResponse{}, http.StatusTooManyRequests,
				&errorResponse{Error: "admission queue full"}
		}
		s.ctr.Expired.Add(1)
		return QueryResponse{}, http.StatusGatewayTimeout,
			&errorResponse{Error: "deadline exceeded in admission queue"}
	}
	s.ctr.ObserveQueueWait(wait)

	ch, err := s.cfg.Backend.Schedule(spec)
	if err != nil {
		release()
		s.cache.Complete(flight, Outcome{}, err)
		s.ctr.Failed.Add(1)
		return QueryResponse{}, http.StatusServiceUnavailable,
			&errorResponse{Error: "schedule: " + err.Error()}
	}

	select {
	case res := <-ch:
		release()
		out := outcomeOf(res)
		if !out.Cacheable() {
			// Cancelled (engine stopping) or rejected: no reusable answer.
			s.cache.Complete(flight, Outcome{}, fmt.Errorf("query finished %s", res.Reason))
			s.ctr.Failed.Add(1)
			return QueryResponse{}, http.StatusServiceUnavailable,
				&errorResponse{Error: "query finished " + res.Reason.String()}
		}
		s.cache.Complete(flight, out, nil)
		s.ctr.Completed.Add(1)
		return s.respFrom(spec, out, started, wait), http.StatusOK, nil
	case <-ctx.Done():
		// The caller abandoned the query: cancel it on the engine and free
		// the admission slot only when the engine actually lets go of it,
		// so MaxInFlight keeps metering true engine load. If the result
		// races the cancel and completes anyway, keep it — the work is
		// paid for; the next request for this key should hit the cache.
		s.cfg.Backend.Cancel(spec.ID)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			res := <-ch
			release()
			if !req.NoCache {
				s.cache.Store(key, outcomeOf(res))
			}
		}()
		s.cache.Complete(flight, Outcome{}, ctx.Err())
		s.ctr.Expired.Add(1)
		return QueryResponse{}, http.StatusGatewayTimeout,
			&errorResponse{Error: "deadline exceeded; query cancelled"}
	}
}

// respFrom maps an outcome to the wire response.
func (s *Server) respFrom(spec query.Spec, out Outcome, started time.Time, wait time.Duration) QueryResponse {
	resp := QueryResponse{
		ID:          int64(spec.ID),
		Kind:        spec.Kind.String(),
		Status:      "done",
		Reason:      out.Reason.String(),
		Supersteps:  out.Supersteps,
		Touched:     out.Touched,
		Workers:     out.Workers,
		LatencyMS:   durMS(s.cfg.Clock().Sub(started)),
		EngineMS:    durMS(out.EngineLatency),
		QueueWaitMS: durMS(wait),
		version:     out.Version,
	}
	if out.Value != query.NoResult {
		v := out.Value
		resp.Value = &v
	}
	return resp
}

func outcomeOf(res controller.Result) Outcome {
	return Outcome{
		Value:         res.Value,
		Reason:        res.Reason,
		Supersteps:    res.Supersteps,
		LocalIters:    res.LocalIters,
		Touched:       res.Touched,
		Workers:       res.Workers,
		EngineLatency: res.Latency,
		Version:       res.Version,
		Blocks:        res.Blocks,
	}
}

// specOf parses and validates a request into a query spec (without ID).
func (s *Server) specOf(req QueryRequest) (query.Spec, error) {
	// Bound-check before the int32 narrowing: a wrapped vertex id would
	// silently answer a different query (or turn -1 into a NilVertex
	// flood) instead of failing validation.
	if req.Source < 0 || req.Source > math.MaxInt32 {
		return query.Spec{}, fmt.Errorf("source %d out of range", req.Source)
	}
	spec := query.Spec{
		Source:   graph.VertexID(req.Source),
		Target:   graph.NilVertex,
		MaxIters: req.MaxIters,
		Epsilon:  req.Epsilon,
	}
	if req.Target != nil {
		if *req.Target < 0 || *req.Target > math.MaxInt32 {
			return query.Spec{}, fmt.Errorf("target %d out of range (omit target to flood)", *req.Target)
		}
		spec.Target = graph.VertexID(*req.Target)
	}
	switch req.Kind {
	case "sssp":
		spec.Kind = query.KindSSSP
	case "bfs":
		spec.Kind = query.KindBFS
	case "poi":
		spec.Kind = query.KindPOI
	case "pagerank":
		spec.Kind = query.KindPageRank
		if spec.MaxIters <= 0 && spec.Epsilon <= 0 {
			// The REPL's defaults; keeps curl one-liners terminating.
			spec.MaxIters, spec.Epsilon = 20, 1e-4
		}
	default:
		return spec, fmt.Errorf("unknown query kind %q (want sssp|bfs|poi|pagerank)", req.Kind)
	}
	// Validate against the live view: streaming updates may have grown the
	// graph past the base it was loaded with.
	if err := spec.Validate(s.cfg.Backend.GraphView()); err != nil {
		return spec, err
	}
	return spec, nil
}

// retryAfter estimates how long a rejected client should back off from
// the current queue depth (a lifetime mean would barely move during a
// sudden overload after a quiet period): one second plus roughly one
// second per full drain generation queued, capped at 30.
func (s *Server) retryAfter() string {
	st := s.admit.Stats()
	sec := int64(1)
	if st.MaxInFlight > 0 {
		sec += int64(st.Queued / st.MaxInFlight)
	}
	if sec > 30 {
		sec = 30
	}
	return strconv.FormatInt(sec, 10)
}

// storePending registers an async result slot, or reports the store full
// (the submission must then be rejected). Pending slots carry no expiry:
// the TTL starts when the result lands (storeDone), so a query outliving
// resultTTL is not silently dropped mid-run — execute always completes
// (deadlines are capped; see maxTimeout), so every pending slot eventually
// becomes done and expires from there.
func (s *Server) storePending(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneResults(false)
	if len(s.results) >= s.cfg.MaxAsyncResults {
		// At the cap the throttled prune may be stale; sweep for real
		// before rejecting.
		s.pruneResults(true)
		if len(s.results) >= s.cfg.MaxAsyncResults {
			return false
		}
	}
	s.results[id] = &asyncResult{}
	return true
}

// storeDone publishes an async result.
func (s *Server) storeDone(id int64, resp QueryResponse, code int, errBody *errorResponse) {
	s.mu.Lock()
	if ar := s.results[id]; ar != nil {
		ar.done = true
		ar.resp, ar.code, ar.errBody = resp, code, errBody
		ar.expires = s.cfg.Clock().Add(resultTTL)
	}
	s.mu.Unlock()
}

// pruneResults drops expired async results; pending ones (not yet done)
// never expire here. Unless forced, the scan is throttled: it is
// O(results) under the server-wide mutex, so running it on every request
// would serialize the whole request path at high async rates. Caller
// holds mu.
func (s *Server) pruneResults(force bool) {
	now := s.cfg.Clock()
	if !force && now.Sub(s.lastPrune) < resultTTL/16 {
		return
	}
	s.lastPrune = now
	for id, ar := range s.results {
		if ar.done && now.After(ar.expires) {
			delete(s.results, id)
		}
	}
}

// newResultToken draws a random positive retrieval token. Tokens stay
// below 2^53 so they survive JSON round trips through IEEE-754 clients
// (JavaScript); ~9e15 values is plenty of enumeration resistance for a
// short-lived result handle.
func newResultToken() int64 {
	var b [8]byte
	_, _ = rand.Read(b[:])
	v := int64(binary.LittleEndian.Uint64(b[:]) & (1<<53 - 1))
	if v == 0 {
		v = 1
	}
	return v
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
