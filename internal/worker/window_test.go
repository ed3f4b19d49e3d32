package worker

import (
	"cmp"
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
// event loop by hand (Handle + Step) and read its state between events.
type recConn struct{ sent []protocol.Message }

func (c *recConn) Send(_ protocol.NodeID, m protocol.Message) error {
	c.sent = append(c.sent, m)
	return nil
}
func (c *recConn) Inbox() <-chan transport.Envelope { return nil }
func (c *recConn) Close() error                     { return nil }

// syncWorker is worker 0 of k on a clock the test advances, by tick per
// query runQuery runs.
type syncWorker struct {
	t    testing.TB
	w    *Worker
	conn *recConn
	now  time.Time
	tick time.Duration
}

// newSyncWorker runs over a line graph of n vertices worker 0 owns entirely.
func newSyncWorker(t testing.TB, k, n int) *syncWorker {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	return newSyncWorkerOn(t, k, b.MustBuild(), make(partition.Assignment, n))
}

func newSyncWorkerOn(t testing.TB, k int, g *graph.Graph, owner partition.Assignment) *syncWorker {
	t.Helper()
	s := &syncWorker{t: t, conn: &recConn{}, now: time.Unix(1000, 0), tick: time.Second}
	w, err := New(Config{
		ID: 0, K: k, Graph: g, Owner: owner,
		Clock: func() time.Time { return s.now },
	}, s.conn)
	if err != nil {
		t.Fatal(err)
	}
	s.w = w
	return s
}

func (s *syncWorker) deliver(m protocol.Message) {
	s.t.Helper()
	if err := s.send(m); err != nil {
		s.t.Fatal(err)
	}
}

// send hands the worker m and runs every superstep it queued, as Run would
// with no other message waiting, and returns the first error.
func (s *syncWorker) send(m protocol.Message) error {
	if _, err := s.w.Handle(transport.Envelope{Msg: m}); err != nil {
		return err
	}
	for {
		if ran, err := s.w.Step(); !ran || err != nil {
			return err
		}
	}
}

// stop opens a global barrier this worker alone takes part in: scopes move
// only inside one.
func (s *syncWorker) stop() {
	s.t.Helper()
	s.deliver(&protocol.GlobalStop{Epoch: 1, Live: []partition.WorkerID{s.w.id}})
}

// runQuery floods iters-1 hops from src, finishes the query one tick
// later, and returns the worker's last barrier report for it; the
// finish gets no reply.
func (s *syncWorker) runQuery(q query.ID, src graph.VertexID, iters int) *protocol.BarrierSynch {
	s.t.Helper()
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{
		ID: q, Kind: query.KindBFS, Source: src, Target: graph.NilVertex, MaxIters: iters,
	}})
	s.deliver(&protocol.BarrierReady{Q: q, Step: 0, BestGoal: query.NoResult, Peers: []partition.WorkerID{s.w.id}})
	last, ok := s.conn.sent[len(s.conn.sent)-1].(*protocol.BarrierSynch)
	if !ok || last.Q != q {
		s.t.Fatalf("last message is not query %d's report: %+v", q, s.conn.sent[len(s.conn.sent)-1])
	}
	s.now = s.now.Add(s.tick)
	sent := len(s.conn.sent)
	s.deliver(&protocol.QueryFinish{Q: q, Reason: protocol.FinishMaxIters})
	if len(s.conn.sent) != sent {
		s.t.Fatalf("query %d's finish was answered: %+v", q, s.conn.sent[sent:])
	}
	return last
}

// pull asks the worker for its window's statistics and returns its answer.
func (s *syncWorker) pull() *protocol.StatsReport {
	s.t.Helper()
	s.deliver(&protocol.StatsPull{Seq: 5})
	rep, ok := s.conn.sent[len(s.conn.sent)-1].(*protocol.StatsReport)
	if !ok || rep.Seq != 5 || rep.W != s.w.id {
		s.t.Fatalf("StatsPull answered with %+v", s.conn.sent[len(s.conn.sent)-1])
	}
	return rep
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
		sig[protocol.BlockOf(v)]++
	}
	return sig
}

// spanSig is the map signature of the vertices lo..hi.
func spanSig(lo, hi graph.VertexID) map[int32]int32 {
	verts := make(map[graph.VertexID]bool)
	for v := lo; v <= hi; v++ {
		verts[v] = true
	}
	return vertsSig(verts)
}

// sortedSig is sig's blocks ordered by block, the order frozenSig.add keeps.
func sortedSig(sig map[int32]int32) []sigBlock {
	var out []sigBlock
	for _, blk := range slices.Sorted(maps.Keys(sig)) {
		out = append(out, sigBlock{blk, sig[blk]})
	}
	return out
}

// TestFinishedScopesAreAWindow drives 20 window-caps of finishes through one
// worker and pins what makes monitoring cost O(window), not O(history): a
// pull names no more pairs than the window holds, no barrier report carries
// intersections, a pull's answer is byte-for-byte as large after the 20th
// cap-full as after the 2nd, and what the worker remembers at all is what
// μ and rememberedScopes admit.
func TestFinishedScopesAreAWindow(t *testing.T) {
	const (
		window = protocol.WindowQueries
		period = 16 // sources repeat with a period dividing the cap
	)
	for _, tc := range []struct {
		name string
		tick time.Duration // between two finishes; the TTL is μ
	}{{"ttl binds", time.Second}, {"cap binds", protocol.DefaultMu / (2 * rememberedScopes)}} {
		t.Run(tc.name, func(t *testing.T) {
			admits := min(int(protocol.DefaultMu/tc.tick)+1, rememberedScopes)
			s := newSyncWorker(t, 1, period*40)
			s.tick = tc.tick
			wire := make([]int, 20) // bytes of the pull's answer after each cap-full
			for i := 0; i < 20*window; i++ {
				s.runQuery(query.ID(i+1), graph.VertexID(i%period*40), 8)
				if len(s.w.finished) > admits || len(s.w.finishOrder) > admits {
					t.Fatalf("finish %d: %d finished queries (%d in the FIFO), want at most %d", i, len(s.w.finished), len(s.w.finishOrder), admits)
				}
				if (i+1)%window == 0 {
					rep := s.pull()
					if len(rep.Pairs) > window*(window-1)/2 {
						t.Fatalf("finish %d: the pull reports %d pairs, the window holds %d", i, len(rep.Pairs), window*(window-1)/2)
					}
					wire[i/window] = transport.WireSize(rep)
				}
			}
			if len(s.w.finished) != admits || len(s.w.window()) != window {
				t.Fatalf("steady state remembers %d queries, %d in the window; want %d and %d", len(s.w.finished), len(s.w.window()), admits, window)
			}
			for _, m := range s.conn.sent {
				if bs, ok := m.(*protocol.BarrierSynch); ok && len(bs.Intersections) != 0 {
					t.Fatalf("a barrier report carries %d intersections: %+v", len(bs.Intersections), bs)
				}
			}
			for i := 2; i < len(wire); i++ {
				if wire[i] != wire[1] || wire[i] <= transport.WireSize(&protocol.StatsReport{}) {
					t.Fatalf("the pull after cap-full %d takes %d bytes, after cap-full 2 it took %d", i+1, wire[i], wire[1])
				}
			}

			// Age alone empties the window too.
			s.now = s.now.Add(protocol.DefaultMu)
			s.runQuery(20*window+1, 0, 8)
			if rep := s.pull(); len(rep.Pairs) != 0 || len(s.w.finished) != 1 || len(s.w.finishOrder) != 1 {
				t.Fatalf("after μ: %d pairs, %d queries remembered; want 0 and 1", len(rep.Pairs), len(s.w.finished))
			}
		})
	}
}

// TestPairReportedByLaterFinisher: a pull reports a pair of windowed queries
// once, as the later finisher's, with Σ_block min of the two final scopes; a
// live partner with the part of its scope that exists by then; a disjoint
// query with nobody.
func TestPairReportedByLaterFinisher(t *testing.T) {
	s := newSyncWorker(t, 1, 1000)
	s.runQuery(1, 100, 60)
	if rep := s.pull(); len(rep.Pairs) != 0 {
		t.Fatalf("one finished query reports %+v", rep.Pairs)
	}
	// Query 2 starts, stops early (a non-solo release is one superstep) and
	// is live while query 3 runs from the same source to the end.
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 2, Kind: query.KindBFS, Source: 150, Target: graph.NilVertex, MaxIters: 60}})
	s.deliver(&protocol.BarrierReady{Q: 2, Step: 0, BestGoal: query.NoResult})
	s.runQuery(3, 150, 60)
	final13 := mapOverlap(vertsSig(s.w.finished[1].verts), vertsSig(s.w.finished[3].verts))
	if final13 == 0 {
		t.Fatal("test scopes do not overlap")
	}
	// 2 touched its source so far, in a block 1 and 3 both fill.
	want := []protocol.IntersectionStat{{Q1: 1, Q2: 2, Shared: 1}, {Q1: 3, Q2: 1, Shared: final13}, {Q1: 3, Q2: 2, Shared: 1}}
	if rep := s.pull(); !slices.Equal(rep.Pairs, want) {
		t.Fatalf("with 2 live the pull reports %+v, want %+v", rep.Pairs, want)
	}
	s.deliver(&protocol.BarrierReady{Q: 2, Step: 1, BestGoal: query.NoResult, Peers: []partition.WorkerID{0}})
	s.deliver(&protocol.QueryFinish{Q: 2, Reason: protocol.FinishMaxIters})
	want = []protocol.IntersectionStat{{Q1: 3, Q2: 1, Shared: final13}, {Q1: 2, Q2: 1, Shared: final13}, {Q1: 2, Q2: 3, Shared: int32(len(s.w.finished[3].verts))}}
	if rep := s.pull(); !slices.Equal(rep.Pairs, want) {
		t.Fatalf("with 2 finished the pull reports %+v, want %+v", rep.Pairs, want)
	}
	s.runQuery(4, 900, 10)
	if rep := s.pull(); len(rep.Pairs) != len(want) || slices.ContainsFunc(rep.Pairs, func(is protocol.IntersectionStat) bool { return is.Q1 == 4 || is.Q2 == 4 }) {
		t.Fatalf("a disjoint query changed the pull to %+v", rep.Pairs)
	}
}

// TestMoveCarriesIntersections: a pull after a scope move reports the moved
// query's overlaps from the worker that holds its vertices now, and nothing
// stale from the one that held them before.
func TestMoveCarriesIntersections(t *testing.T) {
	src := newSyncWorker(t, 2, 100)
	dst := &syncWorker{t: t, conn: &recConn{}, now: src.now}
	var err error
	if dst.w, err = New(Config{
		ID: 1, K: 2, Graph: src.w.cfg.Graph, Owner: src.w.cfg.Owner,
		Clock: func() time.Time { return dst.now },
	}, dst.conn); err != nil {
		t.Fatal(err)
	}
	// Queries 1 (47..53) and 2 (49..55) run on worker 0 and finish on both.
	for _, s := range []*syncWorker{src, dst} {
		s.runQuery(1, 50, 4)
		s.runQuery(2, 52, 4)
	}
	before := mapOverlap(spanSig(49, 55), spanSig(47, 53))
	if rep := src.pull(); !slices.Equal(rep.Pairs, []protocol.IntersectionStat{{Q1: 2, Q2: 1, Shared: before}}) {
		t.Fatalf("before the move worker 0 reports %+v, want %d shared", rep.Pairs, before)
	}
	src.stop()
	dst.stop()
	src.deliver(&protocol.MoveScope{Q: 1, To: 1})
	dst.deliver(src.conn.sent[len(src.conn.sent)-1])
	if rep := src.pull(); len(rep.Pairs) != 0 {
		t.Fatalf("after the move worker 0 still reports %+v", rep.Pairs)
	}
	after := mapOverlap(spanSig(49, 53), spanSig(47, 53))
	if rep := dst.pull(); !slices.Equal(rep.Pairs, []protocol.IntersectionStat{{Q1: 2, Q2: 1, Shared: after}}) {
		t.Fatalf("after the move worker 1 reports %+v, want 49..53 shared: %d", rep.Pairs, after)
	}
}

// TestMoveStripsEveryRememberedScope: a plan names the window Q-cut started
// from, so a directive may move vertices of scopes that have left the window
// since. Their memberships travel with the vertex all the same — or a later
// directive for such a query could no longer co-move the hotspot.
func TestMoveStripsEveryRememberedScope(t *testing.T) {
	const n = protocol.WindowQueries + 20 // the first 20 are outside the window
	s := newSyncWorker(t, 2, 100)
	for q := 1; q <= n; q++ {
		s.runQuery(query.ID(q), 50, 4) // every scope is 47..53
	}
	s.stop()
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
		if fs := s.w.finished[query.ID(q)]; len(fs.verts) != 0 || len(fs.sig.blocks) != 0 {
			t.Fatalf("query %d still remembers moved vertices: %+v", q, fs)
		}
	}
}

// TestScopeDataRemembersNoNewQueries: finished-scope memberships arriving
// with a repartition attach to the queries the worker still remembers, so a
// move cannot grow its memory of the past: what μ forgot stays
// forgotten, and a query it never saw finish is not invented.
func TestScopeDataRemembersNoNewQueries(t *testing.T) {
	const n = 50
	s := newSyncWorker(t, 2, 100)
	s.tick = protocol.DefaultMu / n
	for q := 1; q <= 2*n; q++ { // one tick each, μ is n: the first n-1 age out
		s.runQuery(query.ID(q), 50, 4)
	}
	s.stop()
	moved := protocol.MovedVertex{V: 7}
	for q := 1; q <= 2*n+10; q++ { // forgotten, remembered, never seen
		moved.Finished = append(moved.Finished, query.ID(q))
	}
	s.deliver(&protocol.ScopeData{From: 1, Q: 1, Vertices: []protocol.MovedVertex{moved}})
	if len(s.w.finished) != n+1 || len(s.w.finishOrder) != n+1 {
		t.Fatalf("%d queries remembered (%d in the FIFO) after the move, want %d", len(s.w.finished), len(s.w.finishOrder), n+1)
	}
	want := spanSig(47, 53)
	want[protocol.BlockOf(7)]++
	for q := n; q <= 2*n; q++ {
		fs := s.w.finished[query.ID(q)]
		if fs == nil || !fs.verts[7] || !slices.Equal(fs.sig.blocks, sortedSig(want)) { // 47..53 and 7
			t.Fatalf("remembered query %d did not take vertex 7 into its scope and signature: %+v", q, fs)
		}
	}
}

// TestFrozenSigEqualsMapSig: the signatures a worker keeps agree with the map
// form they replaced. Over more finishes than the window holds, a frozen
// signature holds the same blocks as its map after the adds and strips scope
// moves perform, and a pull reports exactly the Σ_block min of mapOverlap
// for every pair of windowed queries and every windowed query with every
// live one, live ones in ascending id. Halfway, the graph grows by as many
// blocks again, so scopes then hold blocks past the scratch a pull had sized.
func TestFrozenSigEqualsMapSig(t *testing.T) {
	const blocks = 64
	rng := rand.New(rand.NewPCG(22, 22))
	s := newSyncWorker(t, 1, blocks<<sigShift)
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
			if got := slices.SortedFunc(slices.Values(old.sig.blocks), func(a, b sigBlock) int { return cmp.Compare(a.blk, b.blk) }); !slices.Equal(got, sortedSig(m)) {
				t.Fatalf("finish %d: signature of %d = %v, map form %v", i, old.q, got, m)
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
		win := s.w.window()
		for j, fs := range win {
			for _, old := range win[:j] {
				if shared := mapOverlap(finished[fs.q], finished[old.q]); shared > 0 {
					want = append(want, protocol.IntersectionStat{Q1: fs.q, Q2: old.q, Shared: shared})
				}
			}
			for _, q := range slices.Sorted(maps.Keys(live)) {
				if shared := mapOverlap(finished[fs.q], live[q]); shared > 0 {
					want = append(want, protocol.IntersectionStat{Q1: fs.q, Q2: q, Shared: shared})
				}
			}
		}
		if got := s.w.pairs(); !slices.Equal(got, want) {
			t.Fatalf("finish %d: the pull reports %v, map form %v", i, got, want)
		}
		if slices.ContainsFunc(s.w.scratch, func(n int32) bool { return n != 0 }) {
			t.Fatalf("finish %d: the pull left a signature in the scratch", i)
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
	s := newSyncWorker(t, 2, 400)
	s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 100, Target: graph.NilVertex}})
	var reports [][]int32
	step := func(st int32) {
		s.deliver(&protocol.BarrierReady{Q: 1, Step: st, BestGoal: query.NoResult})
		reports = append(reports, s.conn.sent[len(s.conn.sent)-1].(*protocol.BarrierSynch).NewBlocks)
	}
	want := map[int][]int32{}
	seen := map[int32]bool{}
	enter := func(st int, v graph.VertexID) {
		if blk := protocol.BlockOf(v); !seen[blk] {
			seen[blk] = true
			want[st] = append(want[st], blk)
		}
	}
	for st := int32(0); st <= 40; st++ { // superstep st floods 100-st and 100+st
		step(st)
		enter(int(st), 100-graph.VertexID(st))
		enter(int(st), 100+graph.VertexID(st))
	}
	s.stop()
	s.deliver(&protocol.ScopeData{From: 1, Q: 9, Vertices: []protocol.MovedVertex{
		{V: 390, Values: []protocol.QueryValue{{Q: 1, Val: 3}}},
		{V: 130, Values: []protocol.QueryValue{{Q: 1, Val: 3}}},
	}})
	s.deliver(&protocol.GlobalStart{Epoch: 1})
	step(41)
	for _, v := range []graph.VertexID{59, 141, 390, 130} { // the flood goes on
		enter(41, v)
	}
	for st, got := range reports {
		slices.Sort(want[st])
		if !slices.Equal(got, want[st]) {
			t.Fatalf("report of step %d names blocks %v, want %v", st, got, want[st])
		}
	}
}
