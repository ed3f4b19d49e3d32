package worker

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// recConn records what a worker sends, so a test can drive the worker's
// event loop by hand (handle + runReady) and read its state between events.
type recConn struct{ sent []protocol.Message }

func (c *recConn) Send(_ protocol.NodeID, m protocol.Message) error {
	c.sent = append(c.sent, m)
	return nil
}
func (c *recConn) Inbox() <-chan transport.Envelope { return nil }
func (c *recConn) Close() error                     { return nil }

// syncWorker is worker 0 of k on a clock the test advances.
type syncWorker struct {
	t    testing.TB
	w    *Worker
	conn *recConn
	now  time.Time
}

// newSyncWorker runs over a line graph of n vertices worker 0 owns entirely.
func newSyncWorker(t testing.TB, k, n int, ttl time.Duration) *syncWorker {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	return newSyncWorkerOn(t, k, b.MustBuild(), make(partition.Assignment, n), ttl)
}

func newSyncWorkerOn(t testing.TB, k int, g *graph.Graph, owner partition.Assignment, ttl time.Duration) *syncWorker {
	t.Helper()
	s := &syncWorker{t: t, conn: &recConn{}, now: time.Unix(1000, 0)}
	w, err := New(Config{
		ID: 0, K: k, Graph: g, Owner: owner,
		ScopeTTL: ttl, Clock: func() time.Time { return s.now },
	}, s.conn)
	if err != nil {
		t.Fatal(err)
	}
	s.w = w
	return s
}

func (s *syncWorker) deliver(m protocol.Message) {
	s.t.Helper()
	if _, err := s.w.handle(transport.Envelope{Msg: m}); err != nil {
		s.t.Fatal(err)
	}
	for len(s.w.ready) > 0 {
		if err := s.w.runReady(); err != nil {
			s.t.Fatal(err)
		}
	}
}

// runQuery floods iters-1 hops from src, finishes the query one clock
// second later and returns the worker's final report.
func (s *syncWorker) runQuery(q query.ID, src graph.VertexID, iters int) *protocol.BarrierSynch {
	s.t.Helper()
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{
		ID: q, Kind: query.KindBFS, Source: src, Target: graph.NilVertex, MaxIters: iters,
	}})
	s.deliver(&protocol.BarrierReady{Q: q, Step: 0, Solo: true})
	s.now = s.now.Add(time.Second)
	s.deliver(&protocol.QueryFinish{Q: q, Reason: protocol.FinishMaxIters})
	fin := s.conn.sent[len(s.conn.sent)-1].(*protocol.BarrierSynch)
	if !fin.Finished || fin.Q != q {
		s.t.Fatalf("last message is not query %d's final report: %+v", q, fin)
	}
	return fin
}

// mapOverlap is the reference intersections must equal: the Σ_block min walk
// over two map signatures.
func mapOverlap(a, b map[int32]int32) (shared int32) {
	for blk, ca := range a {
		shared += min(ca, b[blk])
	}
	return shared
}

func vertsSig(verts map[graph.VertexID]bool) map[int32]int32 {
	sig := make(map[int32]int32)
	for v := range verts {
		sig[int32(v)>>sigShift]++
	}
	return sig
}

// TestFinishedScopesAreAWindow drives 20 window-caps of finishes through one
// worker and pins what makes a query's monitoring cost O(window), not
// O(history): a final report names no more partners than the window holds,
// no report before the final one carries intersections, the final reports
// are byte-for-byte as large in the 20th cap-full as in the 2nd, and what
// the worker remembers at all is what ScopeTTL and rememberedScopes admit.
func TestFinishedScopesAreAWindow(t *testing.T) {
	const (
		window = protocol.WindowQueries
		period = 16 // sources repeat with a period dividing the cap
	)
	for _, tc := range []struct {
		name string
		ttl  int // finishes (one per clock second) the TTL admits
	}{{"ttl binds", 300}, {"cap binds", 1 << 20}} {
		t.Run(tc.name, func(t *testing.T) {
			admits := min(tc.ttl+1, rememberedScopes)
			s := newSyncWorker(t, 1, period*40, time.Duration(tc.ttl)*time.Second)
			wire := make([]int, 20) // bytes of final reports, per cap-full
			for i := 0; i < 20*window; i++ {
				fin := s.runQuery(query.ID(i+1), graph.VertexID(i%period*40), 8)
				wire[i/window] += transport.WireSize(fin)
				if len(fin.Intersections) >= window {
					t.Fatalf("finish %d reports %d intersections, the window holds %d others", i, len(fin.Intersections), window-1)
				}
				if len(s.w.finished) > admits || len(s.w.finishOrder) > admits {
					t.Fatalf("finish %d: %d finished queries (%d in the FIFO), want at most %d", i, len(s.w.finished), len(s.w.finishOrder), admits)
				}
			}
			if len(s.w.finished) != admits || len(s.w.window()) != window {
				t.Fatalf("steady state remembers %d queries, %d in the window; want %d and %d", len(s.w.finished), len(s.w.window()), admits, window)
			}
			for _, m := range s.conn.sent {
				if bs, ok := m.(*protocol.BarrierSynch); ok && !bs.Finished && len(bs.Intersections) != 0 {
					t.Fatalf("non-final report carries %d intersections: %+v", len(bs.Intersections), bs)
				}
			}
			if wire[0] >= wire[1] {
				t.Fatalf("final reports did not grow while the window filled: %d then %d bytes", wire[0], wire[1])
			}
			for i := 2; i < len(wire); i++ {
				if wire[i] != wire[1] {
					t.Fatalf("final reports of cap-full %d take %d bytes, cap-full 2 took %d", i+1, wire[i], wire[1])
				}
			}

			// Age alone empties the window too.
			s.now = s.now.Add(time.Duration(tc.ttl+1) * time.Second)
			fin := s.runQuery(20*window+1, 0, 8)
			if len(fin.Intersections) != 0 || len(s.w.finished) != 1 || len(s.w.finishOrder) != 1 {
				t.Fatalf("after the TTL: %d intersections, %d queries remembered; want 0 and 1", len(fin.Intersections), len(s.w.finished))
			}
		})
	}
}

// TestPairReportedByLaterFinisher: of two overlapping queries the one that
// finishes second reports the pair with Σ_block min of the two final scopes.
// The first finisher names the second only while that one is live, with
// the part of its scope that exists by then; a disjoint query names nobody.
func TestPairReportedByLaterFinisher(t *testing.T) {
	s := newSyncWorker(t, 1, 1000, time.Hour)
	if first := s.runQuery(1, 100, 60); len(first.Intersections) != 0 {
		t.Fatalf("first finisher reports %+v", first.Intersections)
	}
	// Query 2 starts, stops early (a non-solo release is one superstep) and
	// is live while query 3 runs from the same source to the end.
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 2, Kind: query.KindBFS, Source: 150, Target: graph.NilVertex, MaxIters: 60}})
	s.deliver(&protocol.BarrierReady{Q: 2, Step: 0})
	third := s.runQuery(3, 150, 60)
	final13 := mapOverlap(vertsSig(s.w.finished[1].verts), vertsSig(s.w.finished[3].verts))
	if final13 == 0 {
		t.Fatal("test scopes do not overlap")
	}
	want := []protocol.IntersectionStat{{Q1: 3, Q2: 1, Shared: final13}, {Q1: 3, Q2: 2, Shared: 1}} // 2 touched its source so far
	if !slices.Equal(third.Intersections, want) {
		t.Fatalf("query 3 reports %+v, want %+v", third.Intersections, want)
	}
	s.deliver(&protocol.BarrierReady{Q: 2, Step: 1, Solo: true})
	s.deliver(&protocol.QueryFinish{Q: 2, Reason: protocol.FinishMaxIters})
	second := s.conn.sent[len(s.conn.sent)-1].(*protocol.BarrierSynch)
	want = []protocol.IntersectionStat{{Q1: 2, Q2: 1, Shared: final13}, {Q1: 2, Q2: 3, Shared: int32(len(s.w.finished[3].verts))}}
	if !second.Finished || !slices.Equal(second.Intersections, want) {
		t.Fatalf("query 2 reports %+v, want %+v", second, want)
	}
	if fourth := s.runQuery(4, 900, 10); len(fourth.Intersections) != 0 {
		t.Fatalf("disjoint query reports %+v", fourth.Intersections)
	}
}

// TestMoveStripsEveryRememberedScope: a plan names the window Q-cut started
// from, so a directive may move vertices of scopes that have left the window
// since. Their memberships travel with the vertex all the same — or a later
// directive for such a query could no longer co-move the hotspot.
func TestMoveStripsEveryRememberedScope(t *testing.T) {
	const n = protocol.WindowQueries + 20 // the first 20 are outside the window
	s := newSyncWorker(t, 2, 100, time.Hour)
	for q := 1; q <= n; q++ {
		s.runQuery(query.ID(q), 50, 4) // every scope is 47..53
	}
	s.w.stopping = true
	s.deliver(&protocol.MoveScope{Q: n, To: 1})
	data := s.conn.sent[len(s.conn.sent)-1].(*protocol.ScopeData)
	if len(data.Vertices) != 7 {
		t.Fatalf("moved %d vertices, want 7", len(data.Vertices))
	}
	for _, mv := range data.Vertices {
		if len(mv.Finished) != n {
			t.Fatalf("vertex %d travels with %d memberships, want all %d", mv.V, len(mv.Finished), n)
		}
	}
	for q := 1; q <= n; q++ {
		if fs := s.w.finished[query.ID(q)]; len(fs.verts) != 0 || len(fs.sig) != 0 {
			t.Fatalf("query %d still remembers moved vertices: %+v", q, fs)
		}
	}
}

// TestScopeDataRemembersNoNewQueries: finished-scope memberships arriving
// with a repartition attach to the queries the worker still remembers, so a
// move cannot grow its memory of the past: what ScopeTTL forgot stays
// forgotten, and a query it never saw finish is not invented.
func TestScopeDataRemembersNoNewQueries(t *testing.T) {
	const n = 50
	s := newSyncWorker(t, 2, 100, n*time.Second)
	for q := 1; q <= 2*n; q++ { // one clock second each: the first n-1 age out
		s.runQuery(query.ID(q), 50, 4)
	}
	s.w.stopping = true // scope data only flows inside a global barrier
	moved := protocol.MovedVertex{V: 7}
	for q := 1; q <= 2*n+10; q++ { // forgotten, remembered, never seen
		moved.Finished = append(moved.Finished, query.ID(q))
	}
	s.deliver(&protocol.ScopeData{From: 1, Q: 1, Vertices: []protocol.MovedVertex{moved}})
	if len(s.w.finished) != n+1 || len(s.w.finishOrder) != n+1 {
		t.Fatalf("%d queries remembered (%d in the FIFO) after the move, want %d", len(s.w.finished), len(s.w.finishOrder), n+1)
	}
	for q := n; q <= 2*n; q++ {
		fs := s.w.finished[query.ID(q)]
		if fs == nil || !fs.verts[7] || !slices.Equal(fs.sig, frozenSig{{blk: 0, n: 8}}) { // 47..53 and 7
			t.Fatalf("remembered query %d did not take vertex 7 into its scope and signature: %+v", q, fs)
		}
	}
}

// TestFrozenSigEqualsMapSig: the signatures a worker keeps agree with the map
// form they replaced. Over more finishes than the window holds, a frozen
// signature holds the same blocks as its map after the adds and strips scope
// moves perform, and intersections reports exactly the Σ_block min of
// mapOverlap for every window partner and every live partner, live ones in
// ascending id. Halfway, the graph grows by as many blocks again, so scopes
// then hold blocks past the scratch intersections had sized.
func TestFrozenSigEqualsMapSig(t *testing.T) {
	const blocks = 64
	rng := rand.New(rand.NewPCG(22, 22))
	s := newSyncWorker(t, 1, blocks<<sigShift, time.Hour)
	universe := blocks
	randomSig := func() map[int32]int32 {
		m := make(map[int32]int32)
		for j, n := 0, rng.IntN(40); j < n; j++ {
			m[int32(rng.IntN(universe))] = int32(1 + rng.IntN(64))
		}
		return m
	}
	sigTable := func(m map[int32]int32) *table {
		tb := newTable()
		for blk, n := range m {
			tb.set(graph.VertexID(blk), float64(n))
		}
		return tb
	}
	finished := map[query.ID]map[int32]int32{} // the map form of every finished scope
	liveIDs := []query.ID{900, 300, 600}
	for i := 1; i <= protocol.WindowQueries+12; i++ {
		if i == 70 {
			grow := &protocol.DeltaBatch{Version: 1, NewOwners: make([]partition.WorkerID, blocks<<sigShift)}
			for range grow.NewOwners {
				grow.Ops = append(grow.Ops, delta.Op{Kind: delta.OpAddVertex})
			}
			s.deliver(grow)
			if len(s.w.scratch) > blocks+1 {
				t.Fatalf("scratch covers %d blocks before the graph grew", len(s.w.scratch))
			}
			universe = 2 * blocks
		}
		// What moves do to remembered scopes: strip a vertex out of one, bring
		// one into another.
		for _, old := range s.w.window() {
			m := finished[old.q]
			if blk := int32(rng.IntN(universe)); m[blk] > 0 && rng.IntN(4) == 0 {
				old.sig.add(graph.VertexID(blk<<sigShift), -1)
				if m[blk]--; m[blk] == 0 {
					delete(m, blk)
				}
			} else if rng.IntN(8) == 0 {
				old.sig.add(graph.VertexID(blk<<sigShift+1), 1)
				m[blk]++
			}
			if !slices.Equal(old.sig, freezeSig(sigTable(m))) {
				t.Fatalf("finish %d: signature of %d = %v, map form %v", i, old.q, old.sig, m)
			}
		}
		live := map[query.ID]map[int32]int32{}
		for _, q := range liveIDs {
			live[q] = randomSig()
			s.w.queries[q] = &queryState{sig: sigTable(live[q])}
		}
		m := randomSig()
		fs := &finishedScope{q: query.ID(i), at: s.now, sig: freezeSig(sigTable(m))}
		finished[fs.q] = m
		s.w.remember(fs)

		var want []protocol.IntersectionStat
		for _, old := range s.w.window() {
			if shared := mapOverlap(m, finished[old.q]); shared > 0 && old != fs {
				want = append(want, protocol.IntersectionStat{Q1: fs.q, Q2: old.q, Shared: shared})
			}
		}
		for _, q := range slices.Sorted(maps.Keys(live)) {
			if shared := mapOverlap(m, live[q]); shared > 0 {
				want = append(want, protocol.IntersectionStat{Q1: fs.q, Q2: q, Shared: shared})
			}
		}
		if got := s.w.intersections(fs); !slices.Equal(got, want) {
			t.Fatalf("finish %d reports %v, map form %v", i, got, want)
		}
		if slices.ContainsFunc(s.w.scratch, func(n int32) bool { return n != 0 }) {
			t.Fatalf("finish %d left its signature in the scratch", i)
		}
	}
	if len(s.w.scratch) <= blocks+1 {
		t.Fatalf("scratch covers %d blocks after the graph grew to %d", len(s.w.scratch), 2*blocks)
	}
}

// TestSynchReportsNewBlocksOnce: every barrier report names, sorted, the
// blocks the scope entered since the report before — by a vertex computed
// here or by one a scope move brought — and none twice, so that their union
// at the controller is the block set of the scope.
func TestSynchReportsNewBlocksOnce(t *testing.T) {
	s := newSyncWorker(t, 2, 400, time.Hour)
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 100, Target: graph.NilVertex}})
	var reports [][]int32
	step := func(st int32) {
		s.deliver(&protocol.BarrierReady{Q: 1, Step: st})
		reports = append(reports, s.conn.sent[len(s.conn.sent)-1].(*protocol.BarrierSynch).NewBlocks)
	}
	for st := int32(0); st <= 40; st++ { // the flood reaches 60..140: blocks 0, 1 and 2
		step(st)
	}
	s.w.stopping = true // scope data only flows inside a global barrier
	s.deliver(&protocol.ScopeData{From: 1, Q: 9, Vertices: []protocol.MovedVertex{
		{V: 390, Values: []protocol.QueryValue{{Q: 1, Val: 3}}},
		{V: 130, Values: []protocol.QueryValue{{Q: 1, Val: 3}}},
	}})
	s.w.stopping = false
	step(41)
	want := map[int][]int32{0: {1}, 28: {2}, 37: {0}, 41: {6}}
	for st, got := range reports {
		if !slices.Equal(got, want[st]) {
			t.Fatalf("report of step %d names blocks %v, want %v", st, got, want[st])
		}
	}
}
