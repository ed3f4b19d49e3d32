package core

import (
	"time"

	"math"
	"math/rand/v2"
	"testing"

	"qgraph/internal/controller"
	"qgraph/internal/faultpoint"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// testRoad returns a small but non-trivial road network shared by the
// engine tests.
func testRoad(t testing.TB) *gen.RoadNet {
	t.Helper()
	cfg := gen.RoadConfig{
		CellsX: 24, CellsY: 24, CellKM: 0.5, Jitter: 0.3,
		RemoveProb: 0.08, DiagProb: 0.05,
		HighwayEvery: 8, LocalSpeed: 50, HighwaySpeed: 110,
		NumCities: 4, ZipfS: 1, TagProb: 0.01, Seed: 7,
	}
	net, err := gen.Road(cfg)
	if err != nil {
		t.Fatalf("gen.Road: %v", err)
	}
	return net
}

func startEngine(t testing.TB, g *graph.Graph, mut func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Workers: 4, Graph: g, Partitioner: partition.Hash{}}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("engine error: %v", err)
		}
	})
	return eng
}

// TestSSSPMatchesDijkstra is the central correctness property: distributed
// execution returns exactly the sequential shortest-path distances. The
// engine runs the hybrid barrier; the limited and global modes are
// TestBarrierConformance's, in internal/controller.
func TestSSSPMatchesDijkstra(t *testing.T) {
	t.Run("hybrid", func(t *testing.T) {
		net := testRoad(t)
		eng := startEngine(t, net.G, nil)
		rng := rand.New(rand.NewPCG(42, 42))
		n := net.G.NumVertices()
		for i := 0; i < 15; i++ {
			src := graph.VertexID(rng.IntN(n))
			dst := graph.VertexID(rng.IntN(n))
			h, err := eng.Schedule(query.Spec{
				ID: query.ID(i + 1), Kind: query.KindSSSP, Source: src, Target: dst,
			})
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			res := h.Wait()
			want := graph.DijkstraTo(net.G, src, dst)
			if math.Abs(res.Value-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("query %d (%d→%d): got %v, want %v (reason %d)",
					i+1, src, dst, res.Value, want, res.Reason)
			}
		}
	})
}

// TestPOIMatchesReference checks the POI query against sequential nearest-
// tagged search.
func TestPOIMatchesReference(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)
	rng := rand.New(rand.NewPCG(7, 7))
	n := net.G.NumVertices()
	for i := 0; i < 10; i++ {
		src := graph.VertexID(rng.IntN(n))
		h, err := eng.Schedule(query.Spec{
			ID: query.ID(100 + i), Kind: query.KindPOI, Source: src, Target: graph.NilVertex,
		})
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		res := h.Wait()
		_, want := graph.NearestTagged(net.G, src)
		if math.Abs(res.Value-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("POI from %d: got %v, want %v", src, res.Value, want)
		}
	}
}

// TestParallelQueriesIsolated runs many queries concurrently and checks
// every result against the reference: query-private data must never leak
// between queries.
func TestParallelQueriesIsolated(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)
	rng := rand.New(rand.NewPCG(11, 13))
	n := net.G.NumVertices()
	type qw struct {
		h    *Handle
		want float64
	}
	var qs []qw
	for i := 0; i < 32; i++ {
		src := graph.VertexID(rng.IntN(n))
		dst := graph.VertexID(rng.IntN(n))
		h, err := eng.Schedule(query.Spec{
			ID: query.ID(i + 1), Kind: query.KindSSSP, Source: src, Target: dst,
		})
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		qs = append(qs, qw{h: h, want: graph.DijkstraTo(net.G, src, dst)})
	}
	for i, q := range qs {
		res := q.h.Wait()
		if math.Abs(res.Value-q.want) > 1e-6*math.Max(1, q.want) {
			t.Fatalf("parallel query %d: got %v, want %v", i+1, res.Value, q.want)
		}
	}
}

// TestBFSFloodConverges checks a flood query with no target terminates by
// convergence and touches the whole (connected) graph.
func TestBFSFloodConverges(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)
	h, err := eng.Schedule(query.Spec{
		ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex,
	})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	res := h.Wait()
	if res.Reason != protocol.FinishConverged {
		t.Fatalf("reason = %d, want converged", res.Reason)
	}
	want := graph.ConnectedFrom(net.G, 0)
	if res.Touched != want {
		t.Fatalf("touched %d vertices, want %d", res.Touched, want)
	}
}

// TestPageRankMassMatchesReference compares the distributed localized
// PageRank against the sequential push reference within float tolerance.
func TestPageRankMassMatchesReference(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)
	spec := query.Spec{
		ID: 1, Kind: query.KindPageRank, Source: 5,
		Target: graph.NilVertex, MaxIters: 15, Epsilon: 1e-4,
	}
	h, err := eng.Schedule(spec)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	res := h.Wait()
	ref := query.RefPageRank(net.G, spec)
	if res.Touched != len(ref) {
		t.Fatalf("touched %d vertices, reference %d", res.Touched, len(ref))
	}
}

// TestDuplicateQueryIDRejected: reusing a query id (active or recently
// finished) must be rejected instead of corrupting engine state.
func TestDuplicateQueryIDRejected(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)
	h1, err := eng.Schedule(query.Spec{ID: 5, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	if res := h1.Wait(); res.Reason == protocol.FinishRejected {
		t.Fatal("first use rejected")
	}
	h2, err := eng.Schedule(query.Spec{ID: 5, Kind: query.KindBFS, Source: 1, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	if res := h2.Wait(); res.Reason != protocol.FinishRejected {
		t.Fatalf("windowed duplicate accepted: %+v", res)
	}
	// A fresh id still works after the rejection.
	h3, err := eng.Schedule(query.Spec{ID: 6, Kind: query.KindBFS, Source: 1, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	if res := h3.Wait(); res.Reason != protocol.FinishConverged {
		t.Fatalf("engine unhealthy after rejection: %+v", res)
	}
}

// TestInvalidSpecsRejected: malformed specs fail fast at Schedule.
func TestInvalidSpecsRejected(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)
	bad := []query.Spec{
		{ID: 1, Kind: query.KindSSSP, Source: -1, Target: 0},
		{ID: 2, Kind: query.KindSSSP, Source: 0, Target: graph.VertexID(net.G.NumVertices())},
		{ID: 3, Kind: query.Kind(77), Source: 0, Target: graph.NilVertex},
		{ID: 4, Kind: query.KindPageRank, Source: 0, Target: graph.NilVertex}, // no bounds
	}
	for i, spec := range bad {
		if _, err := eng.Schedule(spec); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

// TestRunBatchCountsEveryFailure: RunBatch returns once every spec is
// answered or refused, however many are refused. (The feeder used to offer
// each refusal to a one-slot channel and drop it when the slot was taken,
// so with two or more refusals the batch waited forever for a result that
// never came.)
func TestRunBatchCountsEveryFailure(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)
	n := graph.VertexID(net.G.NumVertices())
	specs := []query.Spec{
		{ID: 1, Kind: query.KindSSSP, Source: n, Target: 0},
		{ID: 2, Kind: query.KindSSSP, Source: n + 1, Target: 0},
		{ID: 3, Kind: query.KindSSSP, Source: n + 2, Target: 0},
		{ID: 4, Kind: query.KindSSSP, Source: 0, Target: n - 1},
	}
	type batch struct {
		results []controller.Result
		err     error
	}
	done := make(chan batch, 1)
	go func() {
		results, err := eng.RunBatch(specs, 4)
		done <- batch{results, err}
	}()
	select {
	case b := <-done:
		if len(b.results) != 1 || b.results[0].Q != 4 || b.err == nil {
			t.Fatalf("RunBatch = %d results, err %v; want query 4's result and the first refusal", len(b.results), b.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunBatch hung with three refused specs")
	}
}

// TestCloseWithInflightQueries: closing the engine mid-flight delivers
// cancelled results rather than deadlocking.
func TestCloseWithInflightQueries(t *testing.T) {
	net := testRoad(t)
	eng, err := Start(Config{Workers: 4, Graph: net.G, Partitioner: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for i := 0; i < 8; i++ {
		h, err := eng.Schedule(query.Spec{
			ID: query.ID(i + 1), Kind: query.KindBFS,
			Source: graph.VertexID(i), Target: graph.NilVertex,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	done := make(chan struct{})
	go func() {
		for _, h := range handles {
			h.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handles blocked after Close")
	}
}

// TestCancelQuery exercises the serving layer's abandonment path on a
// real engine: a long-running query is cancelled mid-flight, finishes
// promptly with FinishCancelled, and the engine keeps answering fresh
// queries correctly afterwards.
func TestCancelQuery(t *testing.T) {
	net := testRoad(t)
	eng := startEngine(t, net.G, nil)

	// The victim, a flooding BFS with a huge superstep budget, is held in
	// every superstep: until the cancel is on the controller's queue, then
	// a millisecond each, so the cancel lands while it is executing.
	cancelled := make(chan struct{})
	defer faultpoint.Arm(faultpoint.WorkerComputeSlow, func(args ...int) bool {
		if args[1] == 1 {
			<-cancelled
			time.Sleep(time.Millisecond)
		}
		return false
	})()
	h, err := eng.Schedule(query.Spec{
		ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex, MaxIters: 10000,
	})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	eng.Cancel(1)
	close(cancelled)
	select {
	case res := <-h.Done():
		if res.Reason != protocol.FinishCancelled {
			t.Fatalf("reason %v after %d supersteps, want cancelled", res.Reason, res.Supersteps)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query never finished")
	}

	// Cancelling an unknown query is a no-op and must not wedge the loop.
	eng.Cancel(9999)

	// The engine still answers new queries, and the freed query ID stays
	// burned (its window entry lingers), so reuse is rejected.
	src, dst := graph.VertexID(3), graph.VertexID(net.G.NumVertices()-1)
	h2, err := eng.Schedule(query.Spec{ID: 2, Kind: query.KindSSSP, Source: src, Target: dst})
	if err != nil {
		t.Fatalf("schedule after cancel: %v", err)
	}
	res := h2.Wait()
	if want := graph.DijkstraTo(net.G, src, dst); math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("post-cancel sssp: got %g, want %g", res.Value, want)
	}
}
