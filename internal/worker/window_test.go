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
	return newSyncWorkerOn(t, k, lineGraph(n), make(partition.Assignment, n))
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

// peer is worker 1 of s's k on s's graph and initial ownership, with a
// clock of its own.
func (s *syncWorker) peer() *syncWorker {
	s.t.Helper()
	p := &syncWorker{t: s.t, conn: &recConn{}, now: s.now, tick: s.tick}
	w, err := New(Config{
		ID: 1, K: s.w.k, Graph: s.w.cfg.Graph, Owner: s.w.cfg.Owner,
		Clock: func() time.Time { return p.now },
	}, p.conn)
	if err != nil {
		s.t.Fatal(err)
	}
	p.w = w
	return p
}

// last is the last message the worker sent, which must be a T.
func last[T protocol.Message](s *syncWorker) T {
	s.t.Helper()
	m, ok := s.conn.sent[len(s.conn.sent)-1].(T)
	if !ok {
		s.t.Fatalf("last message is %T, want %T", s.conn.sent[len(s.conn.sent)-1], m)
	}
	return m
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

// spanSig is the map signature of the vertices lo..hi.
func spanSig(lo, hi graph.VertexID) map[int32]int32 {
	sig := make(map[int32]int32)
	for v := lo; v <= hi; v++ {
		sig[protocol.BlockOf(v)]++
	}
	return sig
}

// sigMap is the map form of a frozen signature.
func sigMap(sig []sigBlock) map[int32]int32 {
	m := make(map[int32]int32, len(sig))
	for _, b := range sig {
		m[b.blk] = b.n
	}
	return m
}

// sigMass is the number of vertices a signature counts.
func sigMass(sig []sigBlock) (n int32) {
	for _, b := range sig {
		n += b.n
	}
	return n
}

// TestFinishedScopesAreAWindow drives 20 window-caps of finishes through one
// worker and pins what makes monitoring cost O(window), not O(history): a
// pull names no more pairs than the window holds, no barrier report carries
// intersections, a pull's answer is byte-for-byte as large after the 20th
// cap-full as after the 2nd, and what the worker remembers at all is what μ
// and rememberedScopes admit: as many signatures, of as many blocks, once
// that is full.
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
			mass := make([]int, 20) // blocks of the remembered signatures after each
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
					for _, fs := range s.w.finishOrder {
						mass[i/window] += len(fs.sig)
					}
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

			// Memory stops growing at the first cap-full that fills what μ and
			// rememberedScopes admit.
			for full, i := (admits-1)/window, (admits-1)/window+1; i < len(mass); i++ {
				if mass[i] != mass[full] {
					t.Fatalf("after cap-full %d the remembered signatures hold %d blocks, after cap-full %d %d", i+1, mass[i], full+1, mass[full])
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
	final13 := mapOverlap(sigMap(s.w.finished[1].sig), sigMap(s.w.finished[3].sig))
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
	want = []protocol.IntersectionStat{{Q1: 3, Q2: 1, Shared: final13}, {Q1: 2, Q2: 1, Shared: final13}, {Q1: 2, Q2: 3, Shared: sigMass(s.w.finished[3].sig)}}
	if rep := s.pull(); !slices.Equal(rep.Pairs, want) {
		t.Fatalf("with 2 finished the pull reports %+v, want %+v", rep.Pairs, want)
	}
	s.runQuery(4, 900, 10)
	if rep := s.pull(); len(rep.Pairs) != len(want) || slices.ContainsFunc(rep.Pairs, func(is protocol.IntersectionStat) bool { return is.Q1 == 4 || is.Q2 == 4 }) {
		t.Fatalf("a disjoint query changed the pull to %+v", rep.Pairs)
	}
}

// sigsOf copies the signature of every finished query w remembers.
func sigsOf(w *Worker) map[query.ID][]sigBlock {
	out := make(map[query.ID][]sigBlock, len(w.finished))
	for q, fs := range w.finished {
		out[q] = slices.Clone(fs.sig)
	}
	return out
}

// movedIDs are the vertices of a ScopeData, sorted.
func movedIDs(data *protocol.ScopeData) []graph.VertexID {
	var ids []graph.VertexID
	for _, mv := range data.Vertices {
		ids = append(ids, mv.V)
	}
	slices.Sort(ids)
	return ids
}

// TestMoveTakesTheBlocksOwnedVertices: a move takes every vertex the worker
// owns in the moved query's signature blocks, whether the query is finished
// or live and whether it touched the vertex or not, and no other: not one
// another worker owns, nor one that arrived in this barrier. Each vertex
// takes its value and pending message under every live query with it, and
// the target acknowledges exactly the moved set.
func TestMoveTakesTheBlocksOwnedVertices(t *testing.T) {
	owner := make(partition.Assignment, 100)
	owner[41], owner[63] = 1, 1 // in blocks 5 and 7, out of every query's reach
	src := newSyncWorkerOn(t, 2, lineGraph(100), owner)
	dst := src.peer()
	for _, s := range []*syncWorker{src, dst} {
		s.runQuery(1, 50, 4) // 47..53: blocks 5 and 6
		s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 2, Kind: query.KindBFS, Source: 60, Target: graph.NilVertex, MaxIters: 60}})
	}
	// A non-solo release is one superstep: query 2 stays live with a value
	// at 60 and a message for 59 and for 61, all in block 7.
	src.deliver(&protocol.BarrierReady{Q: 2, Step: 0, BestGoal: query.NoResult})
	src.stop()
	dst.stop()
	src.deliver(&protocol.ScopeData{From: 1, Q: 9, Vertices: []protocol.MovedVertex{{V: 44}}})
	move := func(q query.ID, want []graph.VertexID) *protocol.ScopeData {
		t.Helper()
		src.deliver(&protocol.MoveScope{Q: q, To: 1})
		data := last[*protocol.ScopeData](src)
		dst.deliver(data)
		ack := last[*protocol.MoveAck](dst)
		if got := movedIDs(data); !slices.Equal(got, want) || !slices.Equal(slices.Sorted(slices.Values(ack.Vertices)), want) {
			t.Fatalf("move of query %d takes %v, acknowledged %v; want %v", q, got, ack.Vertices, want)
		}
		for _, v := range want {
			if src.w.owner[v] != 1 || dst.w.owner[v] != 1 {
				t.Fatalf("after the move of query %d, vertex %d is worker %d's on worker 0, %d's on worker 1",
					q, v, src.w.owner[v], dst.w.owner[v])
			}
		}
		return data
	}
	span := func(lo, hi graph.VertexID, skip graph.VertexID) (out []graph.VertexID) {
		for v := lo; v <= hi; v++ {
			if v != skip {
				out = append(out, v)
			}
		}
		return out
	}

	want := slices.DeleteFunc(span(40, 55, 41), func(v graph.VertexID) bool { return v == 44 })
	for _, mv := range move(1, want).Vertices {
		if len(mv.Values) != 0 || len(mv.Pending) != 0 {
			t.Fatalf("vertex %d of a finished query's block carries live state: %+v", mv.V, mv)
		}
	}
	if src.w.owner[41] != 1 || src.w.owner[44] != 0 {
		t.Fatalf("vertices 41 and 44 are workers %d's and %d's, want 1's and 0's", src.w.owner[41], src.w.owner[44])
	}

	for _, mv := range move(2, span(56, 62, -1)).Vertices {
		values, pending := len(mv.Values), len(mv.Pending)
		if want := mv.V == 60; (values == 1) != want || values > 1 {
			t.Fatalf("vertex %d moves %d values of query 2", mv.V, values)
		}
		if want := mv.V == 59 || mv.V == 61; (pending == 1) != want || pending > 1 {
			t.Fatalf("vertex %d moves %d messages of query 2", mv.V, pending)
		}
	}
	if qs := src.w.queries[2]; qs.verts.scope != 0 || qs.sig.len() != 0 || len(qs.verts.active[1]) != 0 {
		t.Fatalf("worker 0 keeps query 2's scope %d, %d blocks, %d messages", qs.verts.scope, qs.sig.len(), len(qs.verts.active[1]))
	}
	if qs := dst.w.queries[2]; qs.verts.scope != 1 || qs.sig.len() != 1 || len(qs.verts.active[1]) != 2 {
		t.Fatalf("worker 1 took query 2's scope %d, %d blocks, %d messages; want 1, 1, 2", qs.verts.scope, qs.sig.len(), len(qs.verts.active[1]))
	}
}

// TestMoveLeavesFinishedSignatures: a move rewrites no finished signature on
// either worker, so the Shared of a pair summed over the workers, which is
// what the controller's Iw holds, is the same after a move as before.
func TestMoveLeavesFinishedSignatures(t *testing.T) {
	owner := make(partition.Assignment, 100)
	for v := 80; v < 100; v++ {
		owner[v] = 1
	}
	src := newSyncWorkerOn(t, 2, lineGraph(100), owner)
	dst := src.peer()
	// Queries 1 (47..53) and 2 (49..55) run on worker 0, 3 (85..91) and 4
	// (87..93) on worker 1, and each finishes on both.
	for i, from := range []graph.VertexID{50, 52, 88, 90} {
		src.runQuery(query.ID(i+1), from, 4)
		dst.runQuery(query.ID(i+1), from, 4)
	}
	iw := func() map[[2]query.ID]int32 {
		sum := make(map[[2]query.ID]int32)
		for _, s := range []*syncWorker{src, dst} {
			for _, p := range s.pull().Pairs {
				sum[[2]query.ID{p.Q1, p.Q2}] += p.Shared
			}
		}
		return sum
	}
	before, srcSigs, dstSigs := iw(), sigsOf(src.w), sigsOf(dst.w)
	if before[[2]query.ID{2, 1}] == 0 || before[[2]query.ID{4, 3}] == 0 {
		t.Fatalf("test scopes do not overlap: %v", before)
	}
	src.stop()
	dst.stop()
	src.deliver(&protocol.MoveScope{Q: 1, To: 1})
	dst.deliver(last[*protocol.ScopeData](src))
	dst.deliver(&protocol.MoveScope{Q: 3, To: 0})
	src.deliver(last[*protocol.ScopeData](dst))
	if n := len(last[*protocol.MoveAck](src).Vertices); n != 16 {
		t.Fatalf("the move of query 3 took %d vertices, want blocks 10 and 11", n)
	}
	for _, s := range []*syncWorker{src, dst} {
		s.deliver(&protocol.GlobalStart{Epoch: 1})
	}
	if !maps.EqualFunc(sigsOf(src.w), srcSigs, slices.Equal) || !maps.EqualFunc(sigsOf(dst.w), dstSigs, slices.Equal) {
		t.Fatalf("the moves rewrote finished signatures: worker 0 %v → %v, worker 1 %v → %v",
			srcSigs, sigsOf(src.w), dstSigs, sigsOf(dst.w))
	}
	if after := iw(); !maps.Equal(after, before) {
		t.Fatalf("the workers' pulls sum to %v after the moves, %v before", after, before)
	}
}

// TestScopeDataRemembersNoNewQueries: a moved vertex's values and messages
// under a query that is not live here, remembered, forgotten or never seen,
// are dropped, so a move cannot grow the worker's memory of the past: it
// remembers the same queries with the same signatures, and runs none.
func TestScopeDataRemembersNoNewQueries(t *testing.T) {
	const n = 50
	s := newSyncWorker(t, 2, 100)
	s.tick = protocol.DefaultMu / n
	for q := 1; q <= 2*n; q++ { // one tick each, μ is n: the first n-1 age out
		s.runQuery(query.ID(q), 50, 4)
	}
	sigs := sigsOf(s.w)
	s.stop()
	moved := protocol.MovedVertex{V: 7}
	for q := 1; q <= 2*n+10; q++ { // forgotten, remembered, never seen
		moved.Values = append(moved.Values, protocol.QueryValue{Q: query.ID(q), Val: 1})
		moved.Pending = append(moved.Pending, protocol.PendingMsg{Q: query.ID(q), Step: 4, Val: 2})
	}
	s.deliver(&protocol.ScopeData{From: 1, Q: 1, Vertices: []protocol.MovedVertex{moved}})
	if ack := last[*protocol.MoveAck](s); !slices.Equal(ack.Vertices, []graph.VertexID{7}) {
		t.Fatalf("the move is acknowledged with %v, want vertex 7", ack.Vertices)
	}
	if len(s.w.finished) != n+1 || len(s.w.finishOrder) != n+1 || len(s.w.queries) != 0 {
		t.Fatalf("%d queries remembered (%d in the FIFO), %d live after the move; want %d, %d, 0",
			len(s.w.finished), len(s.w.finishOrder), len(s.w.queries), n+1, n+1)
	}
	if got := sigsOf(s.w); !maps.EqualFunc(got, sigs, slices.Equal) {
		t.Fatalf("the move changed the remembered signatures from %v to %v", sigs, got)
	}
}

// TestFrozenSigEqualsMapSig: the signatures a worker keeps agree with the map
// form they replaced. Over more finishes than the window holds, a pull
// reports exactly the Σ_block min of mapOverlap
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
	sigTable := func(m map[int32]int32) *table[float64] {
		tb := newTable[float64]()
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
