package worker

import (
	"math/rand/v2"
	"slices"
	"testing"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// BenchmarkSuperstep times one superstep of one query on worker 0 of k = 2:
// compute the step's lane, combine the emissions, flush the remote ones as
// VertexBatches. Each op hands the query its frontier afresh and, off the
// clock, drops its values afterwards, so every frontier vertex is touched
// for the first time, as in a growing query. Every table the worker
// recycles once held 4 096 entries: a Go map kept that capacity and paid
// for it on every range and clear.
//
//   - road: the 40-vertex wavefront of an SSSP on a 64×64 grid whose columns
//     0–39 the worker owns; every emission but one stays local.
//   - road-wave: the same wavefront, an SSSP from vertex 0 one superstep
//     later, with the ring behind it settled: half of its emissions go back
//     to settled vertices and cannot improve them.
//   - social: a PageRank pushing from 540 scattered vertices over about 230
//     blocks of a random graph of out-degree 8, Hash-partitioned (odd ids on
//     the other worker), so half the emissions leave.
func BenchmarkSuperstep(b *testing.B) {
	const side, cut = 64, 40
	grid := func() (*graph.Graph, partition.Assignment) {
		gb := graph.NewBuilder(side * side)
		owner := make(partition.Assignment, side*side)
		for y := range side {
			for x := range side {
				v := graph.VertexID(y*side + x)
				if x+1 < side {
					gb.AddBiEdge(v, v+1, 1)
				}
				if y+1 < side {
					gb.AddBiEdge(v, v+side, 1)
				}
				if x >= cut {
					owner[v] = 1
				}
			}
		}
		return gb.MustBuild(), owner
	}
	// ring lists the vertices at hop distance d from vertex 0, with d.
	ring := func(d int) (r []protocol.VertexMsg) {
		for y := range side {
			if x := d - y; x >= 0 && x < side {
				r = append(r, protocol.VertexMsg{To: graph.VertexID(y*side + x), Val: float64(d)})
			}
		}
		return r
	}
	b.Run("road", func(b *testing.B) {
		g, owner := grid()
		frontier := ring(cut - 1)
		for i := range frontier {
			frontier[i].Val = 1
		}
		benchSuperstep(b, g, owner, query.KindSSSP, frontier, nil)
	})
	b.Run("road-wave", func(b *testing.B) {
		g, owner := grid()
		benchSuperstep(b, g, owner, query.KindSSSP, ring(cut-1), ring(cut-2))
	})
	b.Run("social", func(b *testing.B) {
		const n, degree, active = 1 << 14, 8, 540
		rng := rand.New(rand.NewPCG(11, 11))
		gb := graph.NewBuilder(n)
		owner := make(partition.Assignment, n)
		for v := range graph.VertexID(n) {
			for range degree {
				gb.AddEdge(v, graph.VertexID(rng.IntN(n)), 1)
			}
			owner[v] = partition.WorkerID(v % 2)
		}
		seen := map[graph.VertexID]bool{}
		var frontier []protocol.VertexMsg
		for len(frontier) < active {
			if v := graph.VertexID(rng.IntN(n/2) * 2); !seen[v] {
				seen[v] = true
				frontier = append(frontier, protocol.VertexMsg{To: v, Val: 1})
			}
		}
		benchSuperstep(b, gb.MustBuild(), owner, query.KindPageRank, frontier, nil)
	})
}

// benchSuperstep times superstep 0 of a query whose vertices of settled
// hold their values and whose frontier holds its messages.
func benchSuperstep(b *testing.B, g *graph.Graph, owner partition.Assignment, kind query.Kind, frontier, settled []protocol.VertexMsg) {
	s := newSyncWorkerOn(b, 2, g, owner)
	w := s.w
	held, heldVerts := make([]*table[float64], 16), make([]*vertices, 2)
	for i := range held {
		held[i] = w.table()
		for v := range graph.VertexID(4096) {
			held[i].set(v, 1)
		}
	}
	for i := range heldVerts {
		heldVerts[i] = w.vertexTable()
		for v := range graph.VertexID(4096) {
			heldVerts[i].set(v, vertex{val: 1, has: true})
		}
	}
	for _, t := range held {
		w.free(t)
	}
	for _, vs := range heldVerts {
		vs.reset()
		w.vertexTables = append(w.vertexTables, vs)
	}
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: kind, Source: frontier[0].To, Target: graph.NilVertex}})
	qs := w.queries[1]
	settle := func() {
		qs.verts.reset()
		for _, m := range settled {
			qs.verts.set(m.To, vertex{val: m.Val, has: true})
			qs.verts.scope++
		}
	}
	settle()
	b.ReportAllocs()
	b.ResetTimer()
	// Not b.Loop: it sizes the run by the time since the last StartTimer,
	// one op's here, so it never saw the benchtime elapse. b.N is sized by
	// the timed total.
	for range b.N {
		for _, m := range frontier {
			if err := qs.verts.post(0, m.To, m.Val, qs.prog); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.computeStep(qs, 0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		settle()
		w.free(qs.sig)
		qs.sig, qs.newBlocks = w.table(), qs.newBlocks[:0]
		s.conn.sent = s.conn.sent[:0]
		b.StartTimer()
	}
}

// BenchmarkRunOfOneQuery times a whole BFS run of one: 64 supersteps, to
// MaxIters, along a 65-vertex path that one worker owns, released once and
// then by the worker itself, from ExecuteQuery to QueryFinish.
func BenchmarkRunOfOneQuery(b *testing.B) {
	s := newSyncWorker(b, 1, 65)
	self := []partition.WorkerID{0}
	q := query.ID(0)
	b.ReportAllocs()
	for b.Loop() {
		q++
		s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: q, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex, MaxIters: 64}})
		s.deliver(&protocol.BarrierReady{Q: q, Step: 0, BestGoal: query.NoResult, Peers: self})
		if rep, ok := s.conn.sent[len(s.conn.sent)-1].(*protocol.BarrierSynch); !ok || rep.FromStep != 0 || rep.Step != 63 {
			b.Fatalf("the run reported %+v, want supersteps 0..63", s.conn.sent[len(s.conn.sent)-1])
		}
		s.deliver(&protocol.QueryFinish{Q: q, Reason: protocol.FinishMaxIters})
		s.conn.sent = s.conn.sent[:0]
	}
}

// BenchmarkWindowPull times a worker's answer to one StatsPull in the shape
// of social_pagerank: a full window of 128 finished queries and 2 live ones,
// each scope touching 253 of the graph's 313 signature blocks.
func BenchmarkWindowPull(b *testing.B) {
	const blocks, touched, live = 313, 253, 2
	rng := rand.New(rand.NewPCG(13, 13))
	s := newSyncWorkerOn(b, 2, graph.NewBuilder(blocks<<sigShift).MustBuild(), make(partition.Assignment, blocks<<sigShift))
	w := s.w
	sig := func() *table[float64] {
		t := w.table()
		for _, blk := range rng.Perm(blocks)[:touched] {
			t.set(graph.VertexID(blk), float64(1+rng.IntN(1<<sigShift)))
		}
		return t
	}
	for q := range query.ID(protocol.WindowQueries) {
		w.remember(&finishedScope{q: q + 1, at: s.now, sig: freezeSig(sig())})
	}
	for q := range query.ID(live) {
		w.queries[1000+q] = &queryState{sig: sig()}
	}
	b.ReportAllocs()
	for b.Loop() {
		s.deliver(&protocol.StatsPull{Seq: 1})
		s.conn.sent = s.conn.sent[:0]
	}
}

// BenchmarkScopeBlocks times the bookkeeping a scope costs per block, which
// grows as blocks shrink (protocol.SigShift): counting each first-touched
// vertex into the signature (touch), the barrier report that names the new
// blocks (sendSynch), and freezing the signature at finish (freezeSig).
//
//   - social: 1 000 vertices scattered over 20 000 ids, as a personalised
//     PageRank's scope on one worker of a Hash-partitioned social graph.
//   - road: a 20×20 patch of a row-major grid 167 vertices wide (BW at the
//     benchmark's scale 64), touched ring by ring from its centre, as an
//     SSSP's wavefront reaches it.
func BenchmarkScopeBlocks(b *testing.B) {
	b.Run("social", func(b *testing.B) {
		const n, scope = 20000, 1000
		rng := rand.New(rand.NewPCG(17, 17))
		verts := make([]graph.VertexID, scope)
		for i, v := range rng.Perm(n)[:scope] {
			verts[i] = graph.VertexID(v)
		}
		benchScopeBlocks(b, n, verts)
	})
	b.Run("road", func(b *testing.B) {
		const width, side, x0, y0 = 167, 20, 70, 70
		var verts []graph.VertexID
		for y := y0; y < y0+side; y++ {
			for x := x0; x < x0+side; x++ {
				verts = append(verts, graph.VertexID(y*width+x))
			}
		}
		ring := func(v graph.VertexID) int {
			dx, dy := int(v)%width-(x0+side/2), int(v)/width-(y0+side/2)
			return max(dx, -dx) + max(dy, -dy)
		}
		slices.SortStableFunc(verts, func(a, b graph.VertexID) int { return ring(a) - ring(b) })
		benchScopeBlocks(b, width*width, verts)
	})
}

func benchScopeBlocks(b *testing.B, n int, verts []graph.VertexID) {
	s := newSyncWorkerOn(b, 2, graph.NewBuilder(n).MustBuild(), make(partition.Assignment, n))
	w := s.w
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: verts[0], Target: graph.NilVertex}})
	qs := w.queries[1]
	var sig []sigBlock
	at := make([]int, len(verts)) // each vertex's entry in the query's table
	for j, v := range verts {
		at[j], _ = qs.verts.ref(v)
	}
	b.ReportAllocs()
	for b.Loop() {
		w.free(qs.sig)
		qs.sig = w.table()
		for _, i := range at {
			qs.verts.vals[i].has = false
		}
		for _, i := range at {
			qs.touch(i)
		}
		w.sendSynch(1, qs, report{due: true})
		sig = freezeSig(qs.sig)
		s.conn.sent = s.conn.sent[:0]
	}
	b.ReportMetric(float64(len(sig)), "blocks")
}
