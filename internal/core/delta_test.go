package core

import (
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/delta"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
	"qgraph/internal/workload"
)

// pathGraph builds the directed path 0 → 1 → … → n-1 with unit weights.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	return b.MustBuild()
}

// fastCommit configures an engine for immediate mutation commits.
func fastCommit(cfg *Config) {
	cfg.CommitEvery = time.Millisecond
	cfg.MaxBatchOps = 1
	cfg.CheckEvery = 2 * time.Millisecond
}

// mutate applies ops and waits for the commit.
func mutate(t *testing.T, eng *Engine, ops []delta.Op) controller.MutationResult {
	t.Helper()
	ch, err := eng.Mutate(ops)
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	select {
	case res := <-ch:
		if res.Err != nil {
			t.Fatalf("commit: %v", res.Err)
		}
		return res
	case <-time.After(30 * time.Second):
		t.Fatal("commit did not happen")
		return controller.MutationResult{}
	}
}

// sssp runs one point-to-point SSSP and returns its distance.
func sssp(t *testing.T, eng *Engine, id query.ID, src, dst graph.VertexID) float64 {
	t.Helper()
	h, err := eng.Schedule(query.Spec{ID: id, Kind: query.KindSSSP, Source: src, Target: dst})
	if err != nil {
		t.Fatalf("schedule %d: %v", id, err)
	}
	res := h.Wait()
	if res.Reason != protocol.FinishConverged && res.Reason != protocol.FinishEarly {
		t.Fatalf("query %d finished %v", id, res.Reason)
	}
	return res.Value
}

// TestMutationCommitEndToEnd: committed batches change query answers,
// advance the graph version on every node, and added vertices become
// routable with controller-assigned owners.
func TestMutationCommitEndToEnd(t *testing.T) {
	g := pathGraph(10)
	cfg := Config{Workers: 2, Graph: g, Partitioner: partition.Hash{}}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			eng.Close()
		}
	}()

	if d := sssp(t, eng, 1, 0, 9); d != 9 {
		t.Fatalf("pre-mutation distance %g, want 9", d)
	}

	// Double every edge weight, atomically.
	ops := make([]delta.Op, 0, 9)
	for v := 0; v < 9; v++ {
		ops = append(ops, delta.Op{Kind: delta.OpSetWeight, From: graph.VertexID(v), To: graph.VertexID(v + 1), Weight: 2})
	}
	res := mutate(t, eng, ops)
	if res.Version != 1 || res.Applied != 9 || res.NoOps != 0 {
		t.Fatalf("commit = %+v", res)
	}
	if eng.GraphVersion() != 1 {
		t.Fatalf("engine graph version %d, want 1", eng.GraphVersion())
	}
	if d := sssp(t, eng, 2, 0, 9); d != 18 {
		t.Fatalf("post-mutation distance %g, want 18", d)
	}

	// Grow the graph: a new vertex hanging off the end of the path.
	res = mutate(t, eng, []delta.Op{
		{Kind: delta.OpAddVertex},
		{Kind: delta.OpAddEdge, From: 9, To: 10, Weight: 5},
	})
	if res.Version != 2 || res.Applied != 2 {
		t.Fatalf("growth commit = %+v", res)
	}
	if n := eng.GraphView().NumVertices(); n != 11 {
		t.Fatalf("view has %d vertices, want 11", n)
	}
	if d := sssp(t, eng, 3, 0, 10); d != 23 {
		t.Fatalf("distance to added vertex %g, want 23", d)
	}

	// A shortcut edge must immediately win.
	mutate(t, eng, []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 10, Weight: 1}})
	if d := sssp(t, eng, 4, 0, 10); d != 1 {
		t.Fatalf("distance via shortcut %g, want 1", d)
	}

	// Removing the shortcut restores the long route.
	mutate(t, eng, []delta.Op{{Kind: delta.OpRemoveEdge, From: 0, To: 10}})
	if d := sssp(t, eng, 5, 0, 10); d != 23 {
		t.Fatalf("distance after removal %g, want 23", d)
	}

	// Replicas converged: every worker applied all four batches.
	closed = true
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i, wk := range eng.Workers() {
		if v := wk.View().Version(); v != 4 {
			t.Errorf("worker %d at version %d, want 4", i, v)
		}
		if n := wk.View().NumVertices(); n != 11 {
			t.Errorf("worker %d sees %d vertices, want 11", i, n)
		}
	}
}

// TestCommitIsOneWay taps every frame of one commit on k = 3 workers: the
// controller sends each worker the DeltaBatch, and nothing comes back. A
// worker's first frame to the controller answers the next query, which
// reads the batch, so every replica applied it.
func TestCommitIsOneWay(t *testing.T) {
	const k = 3
	type frame struct {
		from, to protocol.NodeID
		typ      protocol.MsgType
	}
	var mu sync.Mutex
	var sent []frame
	tapped := tapNet{transport.NewChanNetwork(k + 1), func(from, to protocol.NodeID, m protocol.Message) {
		mu.Lock()
		sent = append(sent, frame{from, to, m.Type()})
		mu.Unlock()
	}}
	t.Cleanup(func() { tapped.Close() }) // after startEngine's Close
	eng := startEngine(t, pathGraph(9), func(c *Config) {
		c.Workers, c.Network, c.HeartbeatEvery = k, tapped, -1
		fastCommit(c)
	})
	mutate(t, eng, []delta.Op{{Kind: delta.OpSetWeight, From: 0, To: 1, Weight: 5}})
	if d := sssp(t, eng, 1, 0, 8); d != 12 {
		t.Fatalf("distance after the commit %g, want 12", d)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	batches, executing := map[protocol.NodeID]int{}, map[protocol.NodeID]bool{}
	for _, f := range sent {
		switch {
		case f.typ == protocol.TDeltaBatch:
			batches[f.to]++
		case f.typ == protocol.TExecuteQuery:
			executing[f.to] = true
		case f.to == protocol.ControllerNode && (f.typ != protocol.TBarrierSynch || !executing[f.from]):
			t.Errorf("worker %d sent the controller message type %d, not a report of the query", protocol.WorkerOf(f.from), f.typ)
		}
	}
	want := map[protocol.NodeID]int{}
	for w := range partition.WorkerID(k) {
		want[protocol.WorkerNode(w)] = 1
	}
	if !maps.Equal(batches, want) {
		t.Errorf("DeltaBatch frames by receiving node %v, want one to each worker", batches)
	}
}

// TestOverlayConsistencyUnderConcurrentCommits is the half-applied-batch
// detector. Every batch atomically REPLACES the edge 0→1 (remove + add
// with the next weight): a torn batch would be observable as either an
// unreachable target (remove applied, add missing), a duplicated edge, or
// a weight outside the committed sequence. Queries run concurrently with
// the commits, and each one reads the adjacency of vertex 0 in a single
// Compute call, so a mixed read cannot hide across supersteps the way a
// long path can (a multi-superstep query legitimately spans versions; a
// single adjacency read must never see a partial batch).
//
// After each commit the writer also runs one fresh query and asserts it
// sees exactly the new weight: the committed version is visible to the
// very next query, with no stale replica.
func TestOverlayConsistencyUnderConcurrentCommits(t *testing.T) {
	const versions = 12
	// Path padding gives all 3 workers owned vertices; only edge 0→1 is
	// mutated.
	g := pathGraph(9)
	cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			t.Errorf("engine: %v", err)
		}
	}()

	valid := map[float64]bool{1: true} // initial weight
	for i := 1; i <= versions; i++ {
		valid[float64(10*i)] = true
	}

	done, answered := make(chan struct{}), make(chan struct{})
	var readerWG sync.WaitGroup
	var mu sync.Mutex
	var results []float64
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			id := query.ID(1000 * (r + 1))
			for {
				select {
				case <-done:
					return
				default:
				}
				id++
				h, err := eng.Schedule(query.Spec{ID: id, Kind: query.KindSSSP, Source: 0, Target: 1})
				if err != nil {
					t.Errorf("schedule: %v", err)
					return
				}
				res := h.Wait()
				if res.Reason == protocol.FinishCancelled {
					return // engine shutting down
				}
				mu.Lock()
				if results = append(results, res.Value); len(results) == 1 {
					close(answered)
				}
				mu.Unlock()
			}
		}(r)
	}
	// The commits start once a reader has an answer: on a loaded host they
	// can otherwise all land before any reader is scheduled.
	select {
	case <-answered:
	case <-time.After(30 * time.Second):
		t.Fatal("no reader answered")
	}

	for i := 1; i <= versions; i++ {
		res := mutate(t, eng, []delta.Op{
			{Kind: delta.OpRemoveEdge, From: 0, To: 1},
			{Kind: delta.OpAddEdge, From: 0, To: 1, Weight: float32(10 * i)},
		})
		if res.Applied != 2 {
			t.Fatalf("version %d applied %d of 2 ops", i, res.Applied)
		}
		// Freshness: a query scheduled after the commit returned must see
		// exactly the new weight on every replica it touches.
		if d := sssp(t, eng, query.ID(100+i), 0, 1); d != float64(10*i) {
			t.Fatalf("post-commit query saw %g, want %d", d, 10*i)
		}
	}
	close(done)
	readerWG.Wait()

	if len(results) == 0 {
		t.Fatal("no concurrent query results collected")
	}
	for _, v := range results {
		if !valid[v] {
			t.Fatalf("concurrent query observed distance %g — not a committed edge weight (half-applied batch)", v)
		}
	}
	t.Logf("%d concurrent queries across %d commits, all results consistent", len(results), versions)
}

// TestDeltaLogReplayProperty is the recovery substrate's consistency
// property, checked over randomized histories: for every intermediate
// version v of a committed op stream, the CSR base plus a replay of the
// log's first v batches materializes the exact same graph as the live
// overlay view did at version v. This is what entitles a respawned worker
// to rebuild its replica from the shared base and the controller's log —
// no topology is shipped, yet all replicas converge.
func TestDeltaLogReplayProperty(t *testing.T) {
	const (
		versions    = 24
		opsPerBatch = 16
	)
	base := pathGraph(12)
	rng := rand.New(rand.NewPCG(42, 7))
	var log delta.Log
	live := delta.NewView(base)
	// liveAt[v] is the live view at version v (views are immutable, so
	// holding every intermediate is free).
	liveAt := []*delta.View{live}
	// edges tracks existing edges so remove/set_weight ops sometimes hit.
	type edge struct{ from, to graph.VertexID }
	var edges []edge
	for u := 0; u < 12; u++ {
		for _, e := range base.Out(graph.VertexID(u)) {
			edges = append(edges, edge{graph.VertexID(u), e.To})
		}
	}

	for v := 1; v <= versions; v++ {
		n := live.NumVertices()
		ops := make([]delta.Op, 0, opsPerBatch)
		for i := 0; i < opsPerBatch; i++ {
			switch r := rng.Float64(); {
			case r < 0.45:
				op := delta.Op{
					Kind: delta.OpAddEdge,
					From: graph.VertexID(rng.IntN(n)), To: graph.VertexID(rng.IntN(n)),
					Weight: float32(rng.IntN(100)) + 0.5,
				}
				edges = append(edges, edge{op.From, op.To})
				ops = append(ops, op)
			case r < 0.65 && len(edges) > 0:
				e := edges[rng.IntN(len(edges))]
				ops = append(ops, delta.Op{Kind: delta.OpRemoveEdge, From: e.from, To: e.to})
			case r < 0.85 && len(edges) > 0:
				e := edges[rng.IntN(len(edges))]
				ops = append(ops, delta.Op{
					Kind: delta.OpSetWeight, From: e.from, To: e.to,
					Weight: float32(rng.IntN(100)) + 0.25,
				})
			default:
				ops = append(ops, delta.Op{Kind: delta.OpAddVertex})
				n++
			}
		}
		nv, _, err := live.Apply(ops)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		live = nv
		liveAt = append(liveAt, live)
		if err := log.Append(uint64(v), ops); err != nil {
			t.Fatal(err)
		}
	}

	for v := 0; v <= versions; v++ {
		replayed, err := log.Replay(base, uint64(v))
		if err != nil {
			t.Fatalf("replay to %d: %v", v, err)
		}
		want, got := liveAt[v].Materialize(), replayed.Materialize()
		if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
			t.Fatalf("version %d: shape %d/%d vertices %d/%d edges",
				v, want.NumVertices(), got.NumVertices(), want.NumEdges(), got.NumEdges())
		}
		for u := 0; u < want.NumVertices(); u++ {
			a, b := want.Out(graph.VertexID(u)), got.Out(graph.VertexID(u))
			if len(a) != len(b) {
				t.Fatalf("version %d vertex %d: degree %d vs %d", v, u, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("version %d vertex %d edge %d: %+v vs %+v", v, u, i, a[i], b[i])
				}
			}
		}
	}
}

// TestMutateValidation: out-of-range and malformed ops are rejected before
// staging, with per-batch isolation (a bad batch fails alone).
func TestMutateValidation(t *testing.T) {
	eng, err := Start(Config{Workers: 2, Graph: pathGraph(4), Partitioner: partition.Hash{}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bad := [][]delta.Op{
		{{Kind: delta.OpAddEdge, From: 4, To: 0, Weight: 1}},
		{{Kind: delta.OpSetWeight, From: 0, To: 99, Weight: 1}},
		{},
	}
	for i, ops := range bad {
		ch, err := eng.Mutate(ops)
		if err != nil {
			continue // rejected synchronously (empty batch)
		}
		select {
		case res := <-ch:
			if res.Err == nil {
				t.Errorf("bad batch %d committed: %+v", i, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("bad batch %d: no answer", i)
		}
	}
}

// TestResultBlocksAndCommitBlocks: a result carries the sorted block set of
// its scope, the union of what the workers sharing the blocks each reported;
// and the commit subscriber hears of every batch, in order, with the sorted
// blocks of the vertices whose out-edges it changed — a new vertex is none —
// before anyone can read the version.
func TestResultBlocksAndCommitBlocks(t *testing.T) {
	eng := startEngine(t, pathGraph(300), fastCommit) // hash over 4 workers: every block on every worker
	type commit struct {
		version, readable uint64
		blocks            []int32
	}
	var mu sync.Mutex
	var heard []commit
	eng.Controller().OnCommit(func(v uint64, blocks []int32) {
		mu.Lock()
		defer mu.Unlock()
		heard = append(heard, commit{v, eng.GraphVersion(), blocks})
	})

	h, err := eng.Schedule(query.Spec{ID: 1, Kind: query.KindSSSP, Source: 70, Target: 200})
	if err != nil {
		t.Fatal(err)
	}
	var scope []int32 // the blocks of the path 70..200
	for v := graph.VertexID(70); v <= 200; v++ {
		scope = append(scope, protocol.BlockOf(v))
	}
	scope = slices.Compact(scope)
	if res := h.Wait(); res.Value != 130 || !slices.Equal(res.Blocks, scope) {
		t.Fatalf("70→200 = %v over blocks %v, want 130 over %v", res.Value, res.Blocks, scope)
	}
	mutate(t, eng, []delta.Op{
		{Kind: delta.OpSetWeight, From: 260, To: 261, Weight: 2},
		{Kind: delta.OpAddVertex},
		{Kind: delta.OpAddEdge, From: 3, To: 300, Weight: 1},
		{Kind: delta.OpRemoveEdge, From: 299, To: 0}, // no such edge: its source counts all the same
	})
	mutate(t, eng, []delta.Op{{Kind: delta.OpAddVertex}})
	mu.Lock()
	defer mu.Unlock()
	changed := []int32{protocol.BlockOf(3), protocol.BlockOf(260), protocol.BlockOf(299)}
	slices.Sort(changed)
	want := []commit{{1, 0, slices.Compact(changed)}, {2, 1, []int32{}}}
	if len(heard) != len(want) {
		t.Fatalf("heard %+v, want %+v", heard, want)
	}
	for i, w := range want {
		if got := heard[i]; got.version != w.version || got.readable != w.readable || !slices.Equal(got.blocks, w.blocks) {
			t.Fatalf("commit %d heard as %+v, want %+v", i, got, w)
		}
	}
}

// TestFineBlocksEvictFewerAnswers: the block size decides how many cached
// answers a commit evicts. On the benchmark's road map (BW at scale 64, k =
// 2), 128 distinct hotspot SSSP queries finish; then one batch shaped like
// the benchmark's mixed_rw commits, 8 ops on out-edges within 2 km of the
// most populous city. Fewer answers share a block with it at
// protocol.SigShift than when every scope and the batch are coarsened to
// 64-vertex blocks, the block size before 8: those are answers the commit
// cannot change and the cache keeps.
func TestFineBlocksEvictFewerAnswers(t *testing.T) {
	net, err := gen.Road(gen.BWConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	eng := startEngine(t, net.G, func(cfg *Config) {
		cfg.Workers = 2
		cfg.CommitEvery = time.Millisecond
		cfg.MaxBatchOps = 8
	})
	var mu sync.Mutex
	var changed []int32
	eng.Controller().OnCommit(func(_ uint64, blocks []int32) {
		mu.Lock()
		defer mu.Unlock()
		changed = append(changed, blocks...)
	})

	rg := workload.NewRoadGen(net, 1)
	seen := map[[2]graph.VertexID]bool{}
	var specs []query.Spec
	for len(specs) < 128 {
		if s := rg.SSSP(); s.Source != s.Target && !seen[[2]graph.VertexID{s.Source, s.Target}] {
			seen[[2]graph.VertexID{s.Source, s.Target}] = true
			specs = append(specs, s)
		}
	}
	results, err := eng.RunBatch(specs, 16)
	if err != nil {
		t.Fatal(err)
	}

	big := net.Cities[0]
	for _, c := range net.Cities[1:] {
		if c.Pop > big.Pop {
			big = c
		}
	}
	near := net.Index.Within(big.Center, 2.0)
	rng := rand.New(rand.NewPCG(1, 1))
	var ops []delta.Op
	for len(ops) < 8 {
		from, to := near[rng.IntN(len(near))], near[rng.IntN(len(near))]
		if out := net.G.Out(from); len(ops)%2 == 0 && len(out) > 0 {
			e := out[rng.IntN(len(out))]
			ops = append(ops, delta.Op{Kind: delta.OpSetWeight, From: from, To: e.To, Weight: 2 * e.Weight})
		} else if from != to {
			ops = append(ops, delta.Op{Kind: delta.OpAddEdge, From: from, To: to, Weight: 100})
		}
	}
	mutate(t, eng, ops)
	mu.Lock()
	defer mu.Unlock()

	const coarsen = 6 - protocol.SigShift // to 64-vertex blocks
	shares := func(shift int) (n int) {
		hit := map[int32]bool{}
		for _, b := range changed {
			hit[b>>shift] = true
		}
		for _, r := range results {
			if slices.ContainsFunc(r.Blocks, func(b int32) bool { return hit[b>>shift] }) {
				n++
			}
		}
		return n
	}
	fine, coarse := shares(0), shares(coarsen)
	t.Logf("of %d answers, %d share a block with the batch's %d blocks at %d-vertex blocks, %d at 64-vertex blocks",
		len(results), fine, len(changed), 1<<protocol.SigShift, coarse)
	if len(changed) == 0 || fine >= coarse {
		t.Fatalf("the batch evicts %d of %d answers at %d-vertex blocks, no fewer than the %d at 64-vertex blocks",
			fine, len(results), 1<<protocol.SigShift, coarse)
	}
}
