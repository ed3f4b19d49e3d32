package worker

import (
	"math/rand/v2"
	"testing"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// BenchmarkSuperstep times one superstep of one query on worker 0 of k = 2:
// consume the inbox, compute, combine the emissions, flush the remote ones as
// VertexBatches. Each op hands the query its frontier afresh and, off the
// clock, drops its values afterwards, so every vertex is touched for the
// first time, as in a growing query. Every table the worker recycles once held 4 096 entries: a
// Go map kept that capacity and paid for it on every range and clear.
//
//   - road: the 40-vertex wavefront of an SSSP on a 64×64 grid whose columns
//     0–39 the worker owns; every emission but one stays local.
//   - social: a PageRank pushing from 540 scattered vertices over about 230
//     blocks of a random graph of out-degree 8, Hash-partitioned (odd ids on
//     the other worker), so half the emissions leave.
func BenchmarkSuperstep(b *testing.B) {
	b.Run("road", func(b *testing.B) {
		const side, cut = 64, 40
		gb := graph.NewBuilder(side * side)
		owner := make(partition.Assignment, side*side)
		frontier := make([]graph.VertexID, 0, cut)
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
				if x+y == cut-1 {
					frontier = append(frontier, v)
				}
			}
		}
		benchSuperstep(b, gb.MustBuild(), owner, query.KindSSSP, frontier)
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
		var frontier []graph.VertexID
		for len(frontier) < active {
			if v := graph.VertexID(rng.IntN(n/2) * 2); !seen[v] {
				seen[v] = true
				frontier = append(frontier, v)
			}
		}
		benchSuperstep(b, gb.MustBuild(), owner, query.KindPageRank, frontier)
	})
}

func benchSuperstep(b *testing.B, g *graph.Graph, owner partition.Assignment, kind query.Kind, frontier []graph.VertexID) {
	s := newSyncWorkerOn(b, 2, g, owner)
	w := s.w
	held := make([]*table, 16)
	for i := range held {
		held[i] = w.table()
		for v := range graph.VertexID(4096) {
			held[i].set(v, 1)
		}
	}
	for _, t := range held {
		w.free(t)
	}
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: kind, Source: frontier[0], Target: graph.NilVertex}})
	qs := w.queries[1]
	b.ReportAllocs()
	for b.Loop() {
		for _, v := range frontier {
			w.combineIn(qs, 0, v, 1)
		}
		w.computeStep(qs, 0)
		b.StopTimer()
		for st, box := range qs.inbox {
			w.free(box)
			delete(qs.inbox, st)
		}
		w.free(qs.data)
		w.free(qs.sig)
		qs.data, qs.sig, qs.newBlocks = w.table(), w.table(), qs.newBlocks[:0]
		s.conn.sent = s.conn.sent[:0]
		b.StartTimer()
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
	sig := func() *table {
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
