package worker

import (
	"bytes"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// TestTableEqualsMap: under any sequence of sets, combines, deletes and
// resets, a table holds what a Go map holds, finds every key it holds, and
// ranges over exactly those entries. Keys are drawn from a range a few times
// the table's size, so probe runs collide, wrap and shift back on delete.
func TestTableEqualsMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 37))
	tb, ref := newTable[float64](), map[graph.VertexID]float64{}
	prog := query.PageRank{} // combine sums
	for op := 0; op < 200_000; op++ {
		v := graph.VertexID(rng.IntN(3000))
		switch r := rng.IntN(100); {
		case r < 40:
			tb.set(v, float64(op))
			ref[v] = float64(op)
		case r < 70:
			combine(tb, v, 1, prog)
			ref[v]++
		case r < 99:
			tb.del(v)
			delete(ref, v)
		case rng.IntN(20) == 0:
			tb.reset()
			clear(ref)
		}
		if got, ok := tb.get(v); got != ref[v] || ok != hasKey(ref, v) {
			t.Fatalf("op %d: get(%d) = %v, %v; map holds %v", op, v, got, ok, ref[v])
		}
		if op%1000 == 0 {
			ranged := map[graph.VertexID]float64{}
			for i, k := range tb.keys {
				ranged[k] = tb.vals[i]
			}
			if tb.len() != len(ref) || !maps.Equal(ranged, ref) {
				t.Fatalf("op %d: table ranges over %d entries, map holds %d", op, tb.len(), len(ref))
			}
			for k, want := range ref {
				if got, ok := tb.get(k); !ok || got != want {
					t.Fatalf("op %d: get(%d) = %v, %v; want %v", op, k, got, ok, want)
				}
			}
		}
	}
}

// get, set and combine are the map operations the tests check a table
// against.
func (t *table[V]) get(v graph.VertexID) (val V, ok bool) {
	if i, ok := t.probe(v); ok {
		return t.vals[t.slots[i].at], true
	}
	return val, false
}

func (t *table[V]) set(v graph.VertexID, val V) {
	i, _ := t.ref(v)
	t.vals[i] = val
}

// combine folds val into v's value with prog's combiner, in one probe.
func combine(t *table[float64], v graph.VertexID, val float64, prog query.Program) {
	if i, had := t.ref(v); had {
		t.vals[i] = prog.Combine(t.vals[i], val)
	} else {
		t.vals[i] = val
	}
}

func hasKey(m map[graph.VertexID]float64, v graph.VertexID) bool {
	_, ok := m[v]
	return ok
}

// A freed table comes back empty and is handed out again (the same table,
// not a copy), however large it grew: capacity costs a superstep nothing, so
// the free list keeps every table. On a recycled table that once held as
// many entries, get, set, combine and reset allocate nothing.
func TestFreeListRecyclesTables(t *testing.T) {
	s := newSyncWorker(t, 1, 8)
	w := s.w
	tb := w.table()
	for v := range 10_000 {
		tb.set(graph.VertexID(v), 1)
	}
	w.free(tb)
	got := w.table()
	if got != tb || got.len() != 0 || len(w.tables) != 0 {
		t.Fatalf("free list returned %p holding %d entries (freed %p), %d tables left", got, got.len(), tb, len(w.tables))
	}
	if _, ok := got.get(7); ok {
		t.Fatalf("recycled table still finds vertex 7")
	}
	w.free(got)
	prog := query.SSSP{}
	allocs := testing.AllocsPerRun(20, func() {
		tb := w.table()
		for v := range graph.VertexID(10_000) {
			tb.set(v, 2)
			combine(tb, v, 1, prog)
			if x, ok := tb.get(v); !ok || x != 1 {
				t.Fatalf("get(%d) = %v, %v after combining 1 into 2", v, x, ok)
			}
		}
		w.free(tb)
	})
	if allocs != 0 {
		t.Fatalf("a recycled table allocates %v times a run", allocs)
	}
}

// A query that runs on tables an earlier query gave back reports exactly what
// it reports on a fresh worker: recycling carries no vertex, value, pending
// message or signature over, and what the finished query is remembered by is
// its own copy. The first query is cut off by MaxIters with its wavefront's
// messages still pending.
func TestRecycledMapsCarryNothingOver(t *testing.T) {
	fresh := newSyncWorker(t, 1, 512)
	want := fresh.runQuery(2, 300, 40)

	s := newSyncWorker(t, 1, 512)
	first := s.runQuery(1, 100, 60)
	if first.NActiveNext == 0 {
		t.Fatalf("first query left no message pending")
	}
	if len(s.w.tables) < 1 || len(s.w.vertexTables) != 1 {
		t.Fatalf("%d tables and %d query tables recycled at finish, want its signature and its vertices",
			len(s.w.tables), len(s.w.vertexTables))
	}
	if vs := s.w.vertexTables[0]; vs.len() != 0 || vs.scope != 0 || len(vs.active[0])+len(vs.active[1]) != 0 {
		t.Fatalf("recycled query table holds %d entries, scope %d, %d and %d pending",
			vs.len(), vs.scope, len(vs.active[0]), len(vs.active[1]))
	}
	got := s.runQuery(2, 300, 40)
	if pairs := s.pull().Pairs; got.ScopeSize != want.ScopeSize || got.Processed != want.Processed ||
		got.NActiveNext != want.NActiveNext || got.MinFrontier != want.MinFrontier || len(pairs) != 0 {
		t.Fatalf("second query reports %+v, %d intersections; alone it reports %+v, 0", got, len(pairs), want)
	}
	if !slices.Equal(s.w.finished[2].sig, fresh.w.finished[2].sig) {
		t.Fatalf("second query's remembered signature %v differs from the one it has alone, %v",
			s.w.finished[2].sig, fresh.w.finished[2].sig)
	}
	if n := sigMass(s.w.finished[1].sig); n != first.ScopeSize || n == 0 {
		t.Fatalf("first query's signature counts %d vertices, it reported %d", n, first.ScopeSize)
	}
}

// TestTwoRunsSendIdenticalBytes: two fresh workers driven through one script
// send the same bytes. The script's frontiers hold 64 vertices a side of a
// k = 2 cut, so half of every superstep's emissions leave as VertexBatches;
// a PageRank sums its messages in the order they arrived; and the window
// is pulled while two queries are live. On Go maps, iteration order reorders
// batch entries, float sums and intersections from run to run.
func TestTwoRunsSendIdenticalBytes(t *testing.T) {
	// A hub 0 joined to 1..128, and v to v+128: worker 1 owns the odd ids.
	const n = 256
	b := graph.NewBuilder(n)
	owner := make(partition.Assignment, n)
	for v := graph.VertexID(1); v <= 128; v++ {
		b.AddBiEdge(0, v, 1)
		if v+128 < n {
			b.AddBiEdge(v, v+128, 2)
		}
	}
	for v := range owner {
		owner[v] = partition.WorkerID(v % 2)
	}
	g := b.MustBuild()
	var inFromPeer []protocol.VertexMsg
	for v := graph.VertexID(130); v < n; v += 2 {
		inFromPeer = append(inFromPeer, protocol.VertexMsg{To: v, Val: float64(n - v)})
	}
	script := []protocol.Message{
		&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: query.KindSSSP, Source: 0, Target: graph.NilVertex}},
		&protocol.BarrierReady{Q: 1, Step: 0, BestGoal: query.NoResult},
		&protocol.VertexBatch{Q: 1, Step: 0, From: 1, Entries: inFromPeer},
		&protocol.BarrierReady{Q: 1, Step: 1, Expect: 1, BestGoal: query.NoResult},
		&protocol.ExecuteQuery{Spec: query.Spec{ID: 2, Kind: query.KindPageRank, Source: 0, Target: graph.NilVertex, MaxIters: 4}},
		&protocol.BarrierReady{Q: 2, Step: 0, BestGoal: query.NoResult},
		&protocol.VertexBatch{Q: 2, Step: 0, From: 1, Entries: inFromPeer},
		&protocol.BarrierReady{Q: 2, Step: 1, Expect: 1, BestGoal: query.NoResult},
		&protocol.ExecuteQuery{Spec: query.Spec{ID: 3, Kind: query.KindBFS, Source: 130, Target: graph.NilVertex}},
		&protocol.BarrierReady{Q: 3, Step: 0, BestGoal: query.NoResult, Peers: []partition.WorkerID{0}},
		&protocol.QueryFinish{Q: 3, Reason: protocol.FinishConverged},
		&protocol.StatsPull{Seq: 1},
		&protocol.QueryFinish{Q: 1, Reason: protocol.FinishConverged},
		&protocol.QueryFinish{Q: 2, Reason: protocol.FinishMaxIters},
		&protocol.StatsPull{Seq: 2},
	}
	var runs [2][][]byte
	entries := 0
	for r := range runs {
		s := newSyncWorkerOn(t, 2, g, slices.Clone(owner))
		for _, m := range script {
			s.deliver(m)
		}
		for _, m := range s.conn.sent {
			switch m := m.(type) {
			case *protocol.VertexBatch:
				if r == 0 {
					entries += len(m.Entries)
				}
			case *protocol.BarrierSynch:
				m.ComputeNS = 0 // a wall-clock measurement, not a result
			}
			frame, err := transport.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			runs[r] = append(runs[r], frame)
		}
	}
	if entries < 128 {
		t.Fatalf("the script sent %d batch entries, want 64-vertex frontiers across the cut", entries)
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("the runs sent %d and %d messages", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if !bytes.Equal(runs[0][i], runs[1][i]) {
			t.Fatalf("message %d differs between two runs of one script", i)
		}
	}
}
