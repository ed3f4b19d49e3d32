package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/core"
	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
)

func postMutate(t *testing.T, url string, req MutateRequest) (int, MutateResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /mutate: %v", err)
	}
	defer resp.Body.Close()
	var mr MutateResponse
	_ = json.NewDecoder(resp.Body).Decode(&mr)
	return resp.StatusCode, mr
}

// TestMutateEndpoint exercises the wire layer against the stub backend:
// valid batches land with a version, malformed ones are 400s, and the
// serving counters track ops.
func TestMutateEndpoint(t *testing.T) {
	b := newStubBackend()
	s, ts := newTestServer(t, b, nil)

	code, mr := postMutate(t, ts.URL, MutateRequest{Ops: []MutateOp{
		{Op: "add_edge", From: 0, To: 5, Weight: 2.5},
		{Op: "add_vertex"},
	}})
	if code != http.StatusOK || mr.Version != 1 || mr.Applied != 2 {
		t.Fatalf("mutate = %d %+v", code, mr)
	}
	if len(b.mutations) != 1 || len(b.mutations[0]) != 2 {
		t.Fatalf("backend saw %v", b.mutations)
	}
	if b.mutations[0][0] != (delta.Op{Kind: delta.OpAddEdge, From: 0, To: 5, Weight: 2.5}) {
		t.Fatalf("op converted wrong: %+v", b.mutations[0][0])
	}

	for _, bad := range []MutateRequest{
		{},                                 // empty ops
		{Ops: []MutateOp{{Op: "explode"}}}, // unknown kind
		{Ops: []MutateOp{{Op: "add_edge", From: -1, To: 0}}},            // bad vertex
		{Ops: []MutateOp{{Op: "add_edge", From: 0, To: 1, Weight: -2}}}, // bad weight
	} {
		if code, _ := postMutate(t, ts.URL, bad); code != http.StatusBadRequest {
			t.Errorf("bad request %+v -> %d, want 400", bad, code)
		}
	}

	snap := s.Counters().Snapshot(time.Now())
	if snap.MutationOps != 2 || snap.MutationsApplied != 2 || snap.MutationBatches != 1 {
		t.Fatalf("counters = %+v", snap)
	}
}

// TestMutateVersionHeaderReadYourWrites: the /mutate response stamps the
// committed version on X-QGraph-Version, and echoing it as ?min_version=
// admits the follow-up read (while a version the node has not applied is
// refused 412) — the whole read-your-writes loop.
func TestMutateVersionHeaderReadYourWrites(t *testing.T) {
	b := newStubBackend()
	_, ts := newTestServer(t, b, nil)

	body, _ := json.Marshal(MutateRequest{Ops: []MutateOp{
		{Op: "add_edge", From: 0, To: 5, Weight: 2.5},
	}})
	resp, err := http.Post(ts.URL+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate = %d", resp.StatusCode)
	}
	got := resp.Header.Get(VersionHeader)
	if got != "1" {
		t.Fatalf("%s = %q, want the committed version 1", VersionHeader, got)
	}

	// Echo the stamped version: the read must be admitted.
	q, _ := json.Marshal(QueryRequest{Kind: "sssp", Source: 0, Target: ptr(int64(5))})
	r2, err := http.Post(ts.URL+"/query?min_version="+got, "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("read at min_version=%s = %d, want 200", got, r2.StatusCode)
	}

	// A version this node has not applied yet must be refused, not served
	// from older state.
	r3, err := http.Post(ts.URL+"/query?min_version=99", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("read at min_version=99 = %d, want 412", r3.StatusCode)
	}
	if v := r3.Header.Get(VersionHeader); v != "1" {
		t.Fatalf("412 response stamps %s = %q, want the applied version 1", VersionHeader, v)
	}
}

// TestQueryVersionHeader: an executed /query answer reports the version it
// was computed at, not whatever is committed when the response is written; a
// cache hit reports the newest version the answer is known to hold at — k
// commits that missed its scope later, the pin plus k — and so satisfies a
// ?min_version= a client learned from any of them. Errors keep the committed
// version (how far behind a 412 is).
func TestQueryVersionHeader(t *testing.T) {
	b := newStubBackend()
	b.version.Store(5)
	b.pinned.Store(5)
	_, ts := newTestServer(t, b, nil)

	req := QueryRequest{Kind: "sssp", Source: 0, Target: ptr(int64(5))}
	code, first, hdr := postQuery(t, ts.URL, req)
	if code != http.StatusOK || first.CacheHit || hdr.Get(VersionHeader) != "5" {
		t.Fatalf("first read = %d, cache_hit=%v at %q, want a miss at the pinned version 5",
			code, first.CacheHit, hdr.Get(VersionHeader))
	}
	b.commit(3)
	b.commit(4, 200)
	code, second, hdr := postQueryAt(t, ts.URL+"/query?min_version=7", req)
	if code != http.StatusOK || !second.CacheHit || hdr.Get(VersionHeader) != "7" {
		t.Fatalf("read at min_version=7 = %d, cache_hit=%v at %q, want a hit at 7: two commits missed its scope",
			code, second.CacheHit, hdr.Get(VersionHeader))
	}
	if code, _, hdr = postQueryAt(t, ts.URL+"/query?min_version=8", req); code != http.StatusPreconditionFailed || hdr.Get(VersionHeader) != "7" {
		t.Fatalf("read at min_version=8 = %d stamped %q, want 412 stamped 7", code, hdr.Get(VersionHeader))
	}

	b.pinned.Store(6) // commit 7 landed while this one ran
	req.Source = 1
	if code, _, hdr = postQuery(t, ts.URL, req); code != http.StatusOK || hdr.Get(VersionHeader) != "6" {
		t.Fatalf("executed read = %d stamped %q, want 200 stamped with its pin 6", code, hdr.Get(VersionHeader))
	}
	req.Kind = "nope"
	if code, _, hdr = postQuery(t, ts.URL, req); code != http.StatusBadRequest || hdr.Get(VersionHeader) != "7" {
		t.Fatalf("bad request = %d stamped %q, want 400 stamped with the committed version 7", code, hdr.Get(VersionHeader))
	}
}

// TestHealthzReportsVersionsAndDegradation: /healthz carries the live
// graph version and repartition epoch, and turns 503 when the engine is
// degraded.
func TestHealthzReportsVersionsAndDegradation(t *testing.T) {
	b := newStubBackend()
	b.version.Store(4)
	b.epoch.Store(2)
	_, ts := newTestServer(t, b, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	_ = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" ||
		hz.GraphVersion != 4 || hz.RepartitionEpoch != 2 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hz)
	}

	b.mu.Lock()
	b.health = controller.Health{Degraded: true, DeadWorkers: []int{1}}
	b.mu.Unlock()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "degraded" ||
		len(hz.DeadWorkers) != 1 || hz.DeadWorkers[0] != 1 {
		t.Fatalf("degraded healthz = %d %+v", resp.StatusCode, hz)
	}
}

// TestMutateEvictsExactlyOnCommit is the serving-layer end-to-end
// acceptance: over a real engine, a cached result is served until the
// commit, and the very next query after the commit reflects the mutated
// topology — never a stale cached answer across the version bump.
func TestMutateEvictsExactlyOnCommit(t *testing.T) {
	b := graph.NewBuilder(6)
	for v := 0; v+1 < 6; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	g := b.MustBuild()
	eng, err := core.Start(core.Config{
		Workers: 2, Graph: g, Partitioner: partition.Hash{},
		CommitEvery: time.Millisecond, MaxBatchOps: 1, CheckEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			t.Errorf("engine: %v", err)
		}
	}()
	srv, err := New(Config{Backend: eng.Controller(), GraphID: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := QueryRequest{Kind: "sssp", Source: 0, Target: ptr(int64(5))}
	code, qr, _ := postQuery(t, ts.URL, q)
	if code != http.StatusOK || qr.Value == nil || *qr.Value != 5 {
		t.Fatalf("first query = %d %+v", code, qr)
	}
	// Identical repeat is a cache hit with the same answer.
	_, qr, _ = postQuery(t, ts.URL, q)
	if !qr.CacheHit || *qr.Value != 5 {
		t.Fatalf("repeat not served from cache: %+v", qr)
	}

	// Commit a weight change on the path.
	ops := make([]MutateOp, 5)
	for v := 0; v < 5; v++ {
		ops[v] = MutateOp{Op: "set_weight", From: int64(v), To: int64(v + 1), Weight: 3}
	}
	mcode, mr := postMutate(t, ts.URL, MutateRequest{Ops: ops})
	if mcode != http.StatusOK || mr.Version != 1 || mr.Applied != 5 {
		t.Fatalf("mutate = %d %+v", mcode, mr)
	}

	// The next query must NOT be served from the pre-commit cache.
	_, qr, _ = postQuery(t, ts.URL, q)
	if qr.CacheHit {
		t.Fatalf("stale cache hit across version bump: %+v", qr)
	}
	if qr.Value == nil || *qr.Value != 15 {
		t.Fatalf("post-commit value = %+v, want 15", qr.Value)
	}
	// And the new answer is cached.
	_, qr, _ = postQuery(t, ts.URL, q)
	if !qr.CacheHit || *qr.Value != 15 {
		t.Fatalf("post-commit repeat not cached: %+v", qr)
	}

	// Growth through the HTTP plane: add a vertex and route to it.
	mcode, mr = postMutate(t, ts.URL, MutateRequest{Ops: []MutateOp{
		{Op: "add_vertex"},
		{Op: "add_edge", From: 5, To: 6, Weight: 2},
	}})
	if mcode != http.StatusOK || mr.Version != 2 {
		t.Fatalf("growth mutate = %d %+v", mcode, mr)
	}
	code, qr, _ = postQuery(t, ts.URL, QueryRequest{Kind: "sssp", Source: 0, Target: ptr(int64(6))})
	if code != http.StatusOK || qr.Value == nil || *qr.Value != 17 {
		t.Fatalf("query to added vertex = %d %+v", code, qr)
	}

	// Stats reflect the mutation plane.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Engine.GraphVersion != 2 || st.Engine.Vertices != 7 {
		t.Fatalf("stats engine = %+v", st.Engine)
	}
	if st.Serve.MutationsApplied != 7 || st.Cache.Version != 2 {
		t.Fatalf("stats mutations=%d cache version=%d", st.Serve.MutationsApplied, st.Cache.Version)
	}
}

func ptr[T any](v T) *T { return &v }
