package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/core"
	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/wal"
)

// ---------------------------------------------------------------------------
// Stub backend: deterministic, controllable engine for handler tests.

type stubBackend struct {
	mu      sync.Mutex
	epoch   atomic.Int64
	version atomic.Uint64
	// pinned is the version query results report (controller.Result.Version):
	// the version a run was computed at, which trails version when commits
	// landed while it ran.
	pinned atomic.Uint64
	// onCommit is the serving cache's subscription (OnCommit); commit feeds
	// it the way the controller does, before the version becomes readable.
	onCommit  func(version uint64, blocks []int32)
	view      graph.View
	mutations [][]delta.Op
	mutErr    error
	health    controller.Health
	recovery  controller.RecoveryStats
	snapStats snapshot.Stats
	walStats  wal.Stats
	snapErr   error
	scheduled int
	cancelled map[query.ID]bool
	// block, when non-nil, holds every query until closed (admission
	// tests) — unless Cancel releases it individually first.
	block chan struct{}
	// ignoreCancel makes blocked queries wait out the block and complete
	// normally, modelling a result that races the cancel.
	ignoreCancel bool
	cancels      map[query.ID]chan struct{}
}

func newStubBackend() *stubBackend {
	return &stubBackend{
		view:      testGraph(),
		cancelled: make(map[query.ID]bool),
		cancels:   make(map[query.ID]chan struct{}),
	}
}

func (b *stubBackend) Schedule(spec query.Spec) (<-chan controller.Result, error) {
	b.mu.Lock()
	b.scheduled++
	blk := b.block
	cancel := make(chan struct{})
	b.cancels[spec.ID] = cancel
	b.mu.Unlock()
	ch := make(chan controller.Result, 1)
	go func() {
		res := controller.Result{
			Q: spec.ID, Value: float64(spec.Source) * 2, Reason: protocol.FinishConverged,
			Supersteps: 3, Touched: 5, Workers: 1, Latency: time.Millisecond,
			Version: b.pinned.Load(),
			// The stub's scope is the block of the source.
			Blocks: []int32{protocol.BlockOf(spec.Source)},
		}
		if blk != nil {
			if b.ignoreCancel {
				<-blk
			} else {
				select {
				case <-blk:
				case <-cancel:
					res.Reason = protocol.FinishCancelled
					res.Value = query.NoResult
				}
			}
		}
		ch <- res
	}()
	return ch, nil
}

func (b *stubBackend) Cancel(q query.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cancelled[q] = true
	if ch, ok := b.cancels[q]; ok {
		close(ch)
		delete(b.cancels, q)
	}
}

func (b *stubBackend) RepartitionEpoch() int64 { return b.epoch.Load() }

func (b *stubBackend) GraphVersion() uint64 { return b.version.Load() }

func (b *stubBackend) OnCommit(fn func(version uint64, blocks []int32)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onCommit = fn
}

// commit lands one batch that changed out-edges in blocks: the subscriber
// hears of it, then the version (and the pin of later runs) moves.
func (b *stubBackend) commit(blocks ...int32) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.commitLocked(blocks)
}

func (b *stubBackend) commitLocked(blocks []int32) uint64 {
	v := b.version.Load() + 1
	if b.onCommit != nil {
		b.onCommit(v, blocks)
	}
	b.pinned.Store(v)
	b.version.Store(v)
	return v
}

func (b *stubBackend) GraphView() graph.View {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.view
}

// Mutate records the batch and commits it instantly (version bump).
func (b *stubBackend) Mutate(ops []delta.Op) (<-chan controller.MutationResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mutErr != nil {
		return nil, b.mutErr
	}
	b.mutations = append(b.mutations, ops)
	var blocks []int32
	for _, op := range ops {
		if op.Kind != delta.OpAddVertex {
			blocks = append(blocks, protocol.BlockOf(op.From))
		}
	}
	v := b.commitLocked(blocks)
	ch := make(chan controller.MutationResult, 1)
	ch <- controller.MutationResult{Version: v, Applied: len(ops)}
	return ch, nil
}

func (b *stubBackend) Health() controller.Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.health
}

func (b *stubBackend) RecoveryStats() controller.RecoveryStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recovery
}

// ForceSnapshot pretends to checkpoint the current version, cutting once
// per version like the real engine.
func (b *stubBackend) ForceSnapshot() (snapshot.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.snapErr != nil {
		return snapshot.Result{}, b.snapErr
	}
	v := b.version.Load()
	res := snapshot.Result{Version: v, Vertices: b.view.NumVertices(), Edges: b.view.NumEdges()}
	if v != b.snapStats.LastSnapshotVersion || b.snapStats.Snapshots == 0 {
		res.Cut = true
		res.TruncatedOps = int64(b.snapStats.DeltaLogOps)
		b.snapStats.Snapshots++
		b.snapStats.LastSnapshotVersion = v
		b.snapStats.TruncatedOps += res.TruncatedOps
		b.snapStats.DeltaLogLen, b.snapStats.DeltaLogOps, b.snapStats.DeltaLogBytes = 0, 0, 0
	}
	return res, nil
}

func (b *stubBackend) SnapshotStats() snapshot.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapStats
}

func (b *stubBackend) WALStats() wal.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.walStats
}

func (b *stubBackend) MVCCStats() controller.MVCCStats {
	return controller.MVCCStats{}
}

func (b *stubBackend) scheduledCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.scheduled
}

// testGraph is a tiny line graph, enough for spec validation.
func testGraph() *graph.Graph {
	b := graph.NewBuilder(16)
	for i := 0; i < 15; i++ {
		b.AddBiEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	return b.MustBuild()
}

func newTestServer(t *testing.T, b Backend, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Backend: b, GraphID: 1}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url string, req QueryRequest) (int, QueryResponse, http.Header) {
	t.Helper()
	return postQueryAt(t, url+"/query", req)
}

// postQueryAt posts to the full URL given, query string included.
func postQueryAt(t *testing.T, url string, req QueryRequest) (int, QueryResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, qr, resp.Header
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st
}

func target(v int64) *int64 { return &v }

// ---------------------------------------------------------------------------
// Handler tests

func TestQueryBasicAndValidation(t *testing.T) {
	_, ts := newTestServer(t, newStubBackend(), nil)

	code, qr, _ := postQuery(t, ts.URL, QueryRequest{Kind: "sssp", Source: 3, Target: target(5)})
	if code != http.StatusOK || qr.Status != "done" || qr.Value == nil || *qr.Value != 6 {
		t.Fatalf("got %d %+v, want 200 done value 6", code, qr)
	}
	if qr.Reason != "converged" || qr.Supersteps != 3 {
		t.Fatalf("reason %q supersteps %d, want converged/3", qr.Reason, qr.Supersteps)
	}

	for _, bad := range []QueryRequest{
		{Kind: "dijkstra", Source: 1},                              // unknown kind
		{Kind: "sssp", Source: 99, Target: target(1)},              // source out of range
		{Kind: "poi", Source: 1},                                   // untagged graph
		{Kind: "pagerank", Source: 1, MaxIters: -5, Epsilon: 1e-4}, // negative superstep cap
		{Kind: "bfs", Source: 1, MaxIters: 1<<32 + 1},              // cap past the wire's i32
	} {
		if code, _, _ := postQuery(t, ts.URL, bad); code != http.StatusBadRequest {
			t.Fatalf("request %+v: got %d, want 400", bad, code)
		}
	}
	// The decoder is strict: a field the API does not have, such as the
	// retired "tenant", is a 400 rather than silently ignored.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"kind":"sssp","source":3,"target":5,"tenant":"a"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`body with "tenant": got %d, want 400`, resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, newStubBackend(), nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()
	if code, _, _ := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d, want 503", code)
	}
}

// TestCacheHitAndScopeInvalidation: a hit outlives a repartition and a
// commit that missed its scope, reporting the newer version; a commit into
// its scope evicts it — that entry, not the cache.
func TestCacheHitAndScopeInvalidation(t *testing.T) {
	b := newStubBackend()
	_, ts := newTestServer(t, b, nil)
	req := QueryRequest{Kind: "sssp", Source: 2, Target: target(9)}
	other := QueryRequest{Kind: "sssp", Source: 3, Target: target(9)}

	if code, qr, _ := postQuery(t, ts.URL, req); code != 200 || qr.CacheHit {
		t.Fatalf("first: %d hit=%v, want 200 miss", code, qr.CacheHit)
	}
	if code, qr, _ := postQuery(t, ts.URL, req); code != 200 || !qr.CacheHit {
		t.Fatalf("second: %d hit=%v, want cache hit", code, qr.CacheHit)
	}
	if n := b.scheduledCount(); n != 1 {
		t.Fatalf("engine saw %d schedules, want 1 (second was a hit)", n)
	}

	// Placement never changes an answer, and neither does a batch that
	// changed no out-edge in the scope (vertex 2 is in block 0).
	b.epoch.Add(1)
	b.commit(7, 9)
	code, qr, hdr := postQuery(t, ts.URL, req)
	if code != 200 || !qr.CacheHit || hdr.Get(VersionHeader) != "1" {
		t.Fatalf("after a repartition and an untouching commit: %d hit=%v at version %q, want a hit at 1",
			code, qr.CacheHit, hdr.Get(VersionHeader))
	}
	postQuery(t, ts.URL, other)

	b.commit(9, 0)
	if code, qr, _ := postQuery(t, ts.URL, req); code != 200 || qr.CacheHit {
		t.Fatalf("after a commit into the scope: %d hit=%v, want miss", code, qr.CacheHit)
	}
	if n := b.scheduledCount(); n != 3 {
		t.Fatalf("engine saw %d schedules, want 3 after invalidation", n)
	}
	st := getStats(t, ts.URL)
	if st.Serve.Invalidated != 2 || st.Cache.Flushes != 0 || st.Cache.Version != 2 {
		t.Fatalf("stats report %d entries invalidated, %d flushes, cache version %d; want 2, 0, 2",
			st.Serve.Invalidated, st.Cache.Flushes, st.Cache.Version)
	}
	if st.Engine.RepartitionEpoch != 1 {
		t.Fatalf("stats repartition epoch %d, want 1", st.Engine.RepartitionEpoch)
	}

	// NoCache bypasses lookup and storage.
	if code, qr, _ := postQuery(t, ts.URL, QueryRequest{Kind: "sssp", Source: 2, Target: target(9), NoCache: true}); code != 200 || qr.CacheHit {
		t.Fatalf("no_cache request: %d hit=%v, want miss", code, qr.CacheHit)
	}
	if n := b.scheduledCount(); n != 4 {
		t.Fatalf("engine saw %d schedules, want 4 (no_cache executes)", n)
	}
}

func TestAdmissionRejectionUnderLoad(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	s, ts := newTestServer(t, b, func(c *Config) {
		c.Admit = AdmitConfig{MaxInFlight: 2, MaxQueue: 2}
	})

	// 4 distinct queries fill the in-flight set and the queue.
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: int64(i), Target: target(15)})
		}(i)
	}
	waitFor(t, func() bool {
		st := s.admit.Stats()
		return st.InFlight == 2 && st.Queued == 2
	})

	// The next distinct queries must bounce with 429 + Retry-After.
	rejected := 0
	for i := 4; i < 8; i++ {
		code, _, hdr := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: int64(i), Target: target(15)})
		codes[i] = code
		if code == http.StatusTooManyRequests {
			rejected++
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
		}
	}
	if rejected != 4 {
		t.Fatalf("%d of 4 overload requests rejected, want all (codes %v)", rejected, codes[4:])
	}

	close(b.block) // release the engine; the admitted 4 finish
	wg.Wait()
	for i := 0; i < 4; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("admitted request %d got %d, want 200", i, codes[i])
		}
	}
	if st := getStats(t, ts.URL); st.Serve.Rejected != 4 || st.Serve.Completed != 4 {
		t.Fatalf("stats %+v, want 4 rejected 4 completed", st.Serve)
	}
}

func TestDeadlineCancelsQuery(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{}) // queries hang until cancelled
	s, ts := newTestServer(t, b, nil)

	code, _, _ := postQuery(t, ts.URL, QueryRequest{
		Kind: "sssp", Source: 1, Target: target(2), TimeoutMS: 50,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("got %d, want 504", code)
	}
	b.mu.Lock()
	cancelled := len(b.cancelled) == 1
	b.mu.Unlock()
	if !cancelled {
		t.Fatal("deadline did not cancel the query on the engine")
	}
	// The admission slot frees once the engine delivers the cancelled
	// result (the reaper goroutine), not before.
	waitFor(t, func() bool { return s.admit.Stats().InFlight == 0 })
	if st := getStats(t, ts.URL); st.Serve.Expired != 1 {
		t.Fatalf("stats expired %d, want 1", st.Serve.Expired)
	}
}

// TestAsyncResultStoreCap: async submissions beyond MaxAsyncResults are
// rejected 429 — the hard bound on result-store memory.
func TestAsyncResultStoreCap(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	_, ts := newTestServer(t, b, func(c *Config) { c.MaxAsyncResults = 2 })
	defer close(b.block)

	for i := 0; i < 2; i++ {
		code, _, _ := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: int64(i), Target: target(15), Async: true})
		if code != http.StatusAccepted {
			t.Fatalf("async submit %d: got %d, want 202", i, code)
		}
	}
	code, _, hdr := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: 9, Target: target(15), Async: true})
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("over-cap async submit: got %d (Retry-After %q), want 429 with Retry-After", code, hdr.Get("Retry-After"))
	}
}

// TestLateResultIsCached: a result completing just after its request's
// deadline is stored, so the paid-for work serves the next request.
func TestLateResultIsCached(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	b.ignoreCancel = true
	s, ts := newTestServer(t, b, nil)

	req := QueryRequest{Kind: "sssp", Source: 5, Target: target(9), TimeoutMS: 30}
	if code, _, _ := postQuery(t, ts.URL, req); code != http.StatusGatewayTimeout {
		t.Fatalf("got %d, want 504", code)
	}
	close(b.block) // the engine finishes the abandoned query anyway
	waitFor(t, func() bool { return s.admit.Stats().InFlight == 0 })

	req.TimeoutMS = 0
	code, qr, _ := postQuery(t, ts.URL, req)
	if code != http.StatusOK || !qr.CacheHit {
		t.Fatalf("retry after late completion: %d hit=%v, want cache hit", code, qr.CacheHit)
	}
	if n := b.scheduledCount(); n != 1 {
		t.Fatalf("engine saw %d schedules, want 1 (late result reused)", n)
	}
}

func TestCoalescingJoinsInFlight(t *testing.T) {
	b := newStubBackend()
	b.block = make(chan struct{})
	_, ts := newTestServer(t, b, nil)

	req := QueryRequest{Kind: "sssp", Source: 4, Target: target(8)}
	results := make(chan QueryResponse, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, qr, _ := postQuery(t, ts.URL, req)
			results <- qr
		}()
	}
	// Both requests are in flight on one engine query.
	waitFor(t, func() bool { return b.scheduledCount() == 1 && getStats(t, ts.URL).Serve.Received == 2 })
	close(b.block)
	a, bb := <-results, <-results
	if a.Value == nil || bb.Value == nil || *a.Value != *bb.Value {
		t.Fatalf("coalesced results differ: %+v vs %+v", a, bb)
	}
	if !a.Coalesced && !bb.Coalesced {
		t.Fatal("neither response was marked coalesced")
	}
	if n := b.scheduledCount(); n != 1 {
		t.Fatalf("engine saw %d schedules, want 1 (coalesced)", n)
	}
}

func TestAsyncResultFlow(t *testing.T) {
	b := newStubBackend()
	_, ts := newTestServer(t, b, nil)
	code, qr, _ := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: 1, Target: target(3), Async: true})
	if code != http.StatusAccepted || qr.Status != "pending" || qr.ID == 0 {
		t.Fatalf("async submit: %d %+v, want 202 pending", code, qr)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/result/%d", ts.URL, qr.ID))
		if err != nil {
			t.Fatal(err)
		}
		var got QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.Status == "done" {
			if got.Value == nil || *got.Value != 2 {
				t.Fatalf("async result %+v, want value 2", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async result never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Unknown ids 404.
	resp, _ := http.Get(ts.URL + "/result/999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result id: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// ---------------------------------------------------------------------------
// End-to-end: the full HTTP API over a real engine.

// testRoad mirrors the core engine tests' small road network.
func testRoad(t testing.TB) *gen.RoadNet {
	t.Helper()
	net, err := gen.Road(gen.RoadConfig{
		CellsX: 24, CellsY: 24, CellKM: 0.5, Jitter: 0.3,
		RemoveProb: 0.08, DiagProb: 0.05,
		HighwayEvery: 8, LocalSpeed: 50, HighwaySpeed: 110,
		NumCities: 4, ZipfS: 1, TagProb: 0.01, Seed: 7,
	})
	if err != nil {
		t.Fatalf("gen.Road: %v", err)
	}
	return net
}

// slowSupersteps makes every worker superstep take at least d more, until
// the returned func disarms it.
func slowSupersteps(d time.Duration) (disarm func()) {
	return faultpoint.Arm(faultpoint.WorkerComputeSlow, func(...int) bool {
		time.Sleep(d)
		return false
	})
}

// TestServeEndToEnd drives ≥500 mixed SSSP/BFS/PageRank queries through
// the HTTP API over a real 4-worker engine at concurrency 32, asserting
// zero failed queries, SSSP answers matching Dijkstra, a nonzero cache
// hit ratio, and observable admission rejections (429) under overload.
func TestServeEndToEnd(t *testing.T) {
	net := testRoad(t)
	defer slowSupersteps(20 * time.Microsecond)() // keep queries non-instant
	eng, err := core.Start(core.Config{Workers: 4, Graph: net.G})
	if err != nil {
		t.Fatalf("core.Start: %v", err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			t.Errorf("engine: %v", err)
		}
	}()

	srv, err := New(Config{
		Backend: eng.Controller(), GraphID: 7,
		Admit: AdmitConfig{MaxInFlight: 8, MaxQueue: 8},
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A fixed pool of distinct queries; repeats exercise the cache. SSSP
	// answers are pre-computed sequentially for correctness checking.
	n := int64(net.G.NumVertices())
	rng := rand.New(rand.NewPCG(11, 13))
	type pooled struct {
		req  QueryRequest
		want float64 // expected SSSP distance; NaN-free sentinel below
	}
	const noCheck = -1
	var pool []pooled
	for i := 0; i < 24; i++ {
		src, dst := rng.Int64N(n), rng.Int64N(n)
		want := graph.DijkstraTo(net.G, graph.VertexID(src), graph.VertexID(dst))
		if want == query.NoResult {
			want = noCheck // unreachable pair; response value is null
		}
		pool = append(pool, pooled{
			req:  QueryRequest{Kind: "sssp", Source: src, Target: target(dst)},
			want: want,
		})
	}
	for i := 0; i < 16; i++ {
		pool = append(pool, pooled{
			req:  QueryRequest{Kind: "bfs", Source: rng.Int64N(n), MaxIters: 4},
			want: noCheck,
		})
	}
	for i := 0; i < 8; i++ {
		pool = append(pool, pooled{
			req:  QueryRequest{Kind: "pagerank", Source: rng.Int64N(n), MaxIters: 6, Epsilon: 1e-3},
			want: noCheck,
		})
	}

	const (
		totalQueries = 520
		concurrency  = 32
	)
	work := make(chan int, totalQueries)
	for i := 0; i < totalQueries; i++ {
		work <- i
	}
	close(work)

	var completed, clientRejects atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 30 * time.Second}
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				p := pool[i%len(pool)]
				body, _ := json.Marshal(p.req)
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("query %d: %v", i, err)
						break
					}
					var qr QueryResponse
					decErr := json.NewDecoder(resp.Body).Decode(&qr)
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests {
						// Backpressure: retry after a short pause. These
						// are rejected requests, not failed queries.
						clientRejects.Add(1)
						time.Sleep(time.Duration(2+attempt%5) * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK || decErr != nil {
						t.Errorf("query %d (%s): status %d decode %v", i, p.req.Kind, resp.StatusCode, decErr)
						break
					}
					if qr.Status != "done" || qr.Reason == "" {
						t.Errorf("query %d: malformed response %+v", i, qr)
						break
					}
					if p.want != noCheck {
						if qr.Value == nil {
							t.Errorf("sssp %d: null value, want %g", i, p.want)
						} else if diff := *qr.Value - p.want; diff > 1e-6 || diff < -1e-6 {
							t.Errorf("sssp %d: value %g, want %g", i, *qr.Value, p.want)
						}
					} else if p.req.Kind == "sssp" && qr.Value != nil {
						t.Errorf("sssp %d: value %g for unreachable pair, want null", i, *qr.Value)
					}
					completed.Add(1)
					break
				}
			}
		}(w)
	}
	wg.Wait()

	if got := completed.Load(); got != totalQueries {
		t.Fatalf("completed %d of %d queries", got, totalQueries)
	}
	if clientRejects.Load() == 0 {
		// The storm raced past the queue limit without a single rejection
		// (machine-dependent timing): drive the 429 path deterministically
		// by holding every admission slot and flooding cache misses.
		var rels []func()
		for i := 0; i < 8; i++ {
			rel, _, err := srv.admit.Acquire(context.Background())
			if err != nil {
				t.Fatalf("saturating admission: %v", err)
			}
			rels = append(rels, rel)
		}
		var fwg sync.WaitGroup
		for i := 0; i < 20; i++ {
			fwg.Add(1)
			go func(i int) {
				defer fwg.Done()
				body, _ := json.Marshal(QueryRequest{Kind: "bfs", Source: int64(i), MaxIters: 2, TimeoutMS: 100})
				resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					clientRejects.Add(1)
				}
			}(i)
		}
		fwg.Wait()
		for _, rel := range rels {
			rel()
		}
	}
	st := getStats(t, ts.URL)
	if st.Serve.Failed != 0 {
		t.Fatalf("server reports %d failed queries, want 0", st.Serve.Failed)
	}
	if st.Serve.Completed < totalQueries {
		t.Fatalf("server completed %d, want ≥%d", st.Serve.Completed, totalQueries)
	}
	if st.Serve.HitRatio <= 0 {
		t.Fatalf("cache hit ratio %v, want > 0 (hits %d, coalesced %d, misses %d)",
			st.Serve.HitRatio, st.Serve.CacheHits, st.Serve.Coalesced, st.Serve.CacheMisses)
	}
	if st.Serve.Rejected == 0 || clientRejects.Load() == 0 {
		t.Fatalf("no admission rejections observed (server %d, client %d) — overload did not bite",
			st.Serve.Rejected, clientRejects.Load())
	}
	if st.Serve.QPS <= 0 || st.Serve.MeanQueueWait < 0 {
		t.Fatalf("implausible stats: %+v", st.Serve)
	}
	t.Logf("e2e: %d queries, %d rejections retried, hit ratio %.2f, %.0f qps, mean queue wait %s",
		totalQueries, clientRejects.Load(), st.Serve.HitRatio, st.Serve.QPS, st.Serve.MeanQueueWait)
}
