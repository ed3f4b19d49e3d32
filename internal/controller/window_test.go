package controller

import (
	"reflect"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// newLoopless builds a controller whose event loop never runs: the window
// tests call its handlers directly, in the order the loop would. Its clock
// stands still, so one view gives one snapshot.
func newLoopless(t *testing.T, k int, mut ...func(*Config)) *Controller {
	t.Helper()
	g := lineGraph(8)
	net := transport.NewChanNetwork(k+1, transport.Latency{})
	t.Cleanup(func() { net.Close() })
	now := time.Unix(1_000, 0)
	cfg := Config{
		K: k, Graph: g, Owner: make(partition.Assignment, g.NumVertices()), HeartbeatEvery: -1,
		Clock: func() time.Time { return now },
	}
	for _, m := range mut {
		m(&cfg)
	}
	c, err := New(cfg, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// finish puts query q into the window, its scope 10 vertices on each worker.
func finish(c *Controller, q query.ID) {
	sizes := make([]int64, c.cfg.K)
	for w := range sizes {
		sizes[w] = 10
	}
	c.windowAdd(&qctl{spec: query.Spec{ID: q}, scopeSizes: sizes}, c.cfg.Clock())
}

// pull runs one StatsPull as QcutSnapshot does and returns Q-cut's input:
// each live worker w answers with pairs[w] (none past the end of pairs).
func pull(t *testing.T, c *Controller, pairs ...[]protocol.IntersectionStat) qcut.Input {
	t.Helper()
	ch := make(chan qcut.Input, 1)
	c.pullStats(false, ch)
	answer(t, c, pairs...)
	select {
	case in := <-ch:
		return in
	default:
		t.Fatal("every live worker answered, and the pull is still open")
		return qcut.Input{}
	}
}

// answer delivers each live worker's StatsReport to the pull in flight, if
// one is (with no worker live, none is), as the event loop would.
func answer(t *testing.T, c *Controller, pairs ...[]protocol.IntersectionStat) {
	t.Helper()
	if c.pull == nil {
		return
	}
	seq := c.pull.seq
	for w := partition.WorkerID(0); int(w) < c.cfg.K; w++ {
		if c.deadWorkers[w] {
			continue
		}
		m := &protocol.StatsReport{Seq: seq, W: w}
		if int(w) < len(pairs) {
			m.Pairs = pairs[w]
		}
		if err := c.handle(transport.Envelope{From: protocol.WorkerNode(w), Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
}

// is is one intersection estimate, as a worker reports it.
func is(q1, q2 query.ID, shared int32) protocol.IntersectionStat {
	return protocol.IntersectionStat{Q1: q1, Q2: q2, Shared: shared}
}

// sharedIn returns what Q-cut's input says queries a and b share, and how
// often it lists the pair.
func sharedIn(in qcut.Input, a, b query.ID) (shared int64, listed int) {
	for _, is := range in.Intersections {
		if (is.Q1 == a && is.Q2 == b) || (is.Q1 == b && is.Q2 == a) {
			shared += is.Shared
			listed++
		}
	}
	return shared, listed
}

// TestDeadWorkerIntersectionsMasked: Q-cut's input drops a dead worker's
// intersection rows as it drops its scope sizes, and a pull asks only the
// live workers.
func TestDeadWorkerIntersectionsMasked(t *testing.T) {
	c := newLoopless(t, 2)
	finish(c, 1)
	finish(c, 2)
	rows := [][]protocol.IntersectionStat{{is(2, 1, 3)}, {is(2, 1, 4)}}
	if got, n := sharedIn(pull(t, c, rows...), 1, 2); got != 7 || n != 1 {
		t.Fatalf("both workers live: pair listed %d times sharing %d, want once sharing 7", n, got)
	}
	c.deadWorkers[0] = true
	if got, _ := sharedIn(pull(t, c, rows...), 1, 2); got != 4 {
		t.Fatalf("worker 0 dead: pair shares %d, want worker 1's 4", got)
	}
	c.deadWorkers[1] = true
	if in := pull(t, c, rows...); len(in.Intersections) != 0 {
		t.Fatalf("no worker live: %+v", in.Intersections)
	}
}

// TestPullCompletesOverSurvivors: a worker declared dead while a pull waits
// for it leaves the pull, so the pull completes over the survivors, and the
// rows of a worker that answered before it died are masked. The survivors'
// answers still count in the recovery round the death opened.
func TestPullCompletesOverSurvivors(t *testing.T) {
	c := newLoopless(t, 3)
	finish(c, 1)
	finish(c, 2)
	ch := make(chan qcut.Input, 1)
	c.pullStats(false, ch)
	report := func(w partition.WorkerID, shared int32) {
		t.Helper()
		m := &protocol.StatsReport{Seq: c.pull.seq, W: w, Pairs: []protocol.IntersectionStat{is(2, 1, shared)}}
		if err := c.handle(transport.Envelope{From: protocol.WorkerNode(w), Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	report(0, 4)
	c.onWorkerDead(0) // answered, then died
	if c.phase != phaseRecover || c.pull == nil {
		t.Fatalf("phase %d, pull %v: want a recovery round open and the pull waiting", c.phase, c.pull)
	}
	report(1, 2)
	c.onWorkerDead(2) // died owing its answer
	select {
	case in := <-ch:
		if got, n := sharedIn(in, 1, 2); got != 2 || n != 1 {
			t.Fatalf("pair listed %d times sharing %d, want once sharing worker 1's 2", n, got)
		}
	default:
		t.Fatal("the pull still waits with every live worker answered")
	}
	if c.pull != nil {
		t.Fatal("a completed pull is still in flight")
	}
}

// TestIntersectionsLeaveWithTheWindowEntry: the global view holds no statistic the window does
// not — a pair disappears from Q-cut's input when either of its queries is
// evicted, even if a worker still names it.
func TestIntersectionsLeaveWithTheWindowEntry(t *testing.T) {
	c := newLoopless(t, 2)
	chain := func(last query.ID) [][]protocol.IntersectionStat {
		var rows []protocol.IntersectionStat
		for q := query.ID(2); q <= last; q++ {
			rows = append(rows, is(q, q-1, 1))
		}
		return [][]protocol.IntersectionStat{rows, rows}
	}
	for q := query.ID(1); q <= protocol.WindowQueries; q++ {
		finish(c, q)
	}
	in := pull(t, c, chain(protocol.WindowQueries)...)
	if len(in.Scopes) != protocol.WindowQueries || len(in.Intersections) != protocol.WindowQueries-1 {
		t.Fatalf("full window: %d rows, %d pairs", len(in.Scopes), len(in.Intersections))
	}
	// Two more finishes evict queries 1 and 2; the workers' answers still
	// name pairs (2,1) and (3,2).
	finish(c, protocol.WindowQueries+1)
	finish(c, protocol.WindowQueries+2)
	in = pull(t, c, chain(protocol.WindowQueries+2)...)
	if len(in.Scopes) != protocol.WindowQueries || len(in.Intersections) != protocol.WindowQueries-1 {
		t.Fatalf("after two evictions: %d rows, %d pairs", len(in.Scopes), len(in.Intersections))
	}
	if c.byQ[1] != nil || c.byQ[2] != nil || len(c.byQ) != len(c.window) {
		t.Fatalf("evicted entries still indexed: %d indexed, %d windowed", len(c.byQ), len(c.window))
	}
	if got, n := sharedIn(in, 2, 3); n != 0 {
		t.Fatalf("pair (2,3) still listed sharing %d after 2 was evicted", got)
	}
}

// TestLaterFinisherSupersedes: a pull names a live partner with the part of
// its scope that exists by then; once the partner finished, the next pull's
// estimate, both scopes final, replaces that one instead of adding to it.
func TestLaterFinisherSupersedes(t *testing.T) {
	c := newLoopless(t, 2)
	c.queries[2] = &qctl{spec: query.Spec{ID: 2}, scopeSizes: make([]int64, 2)}
	finish(c, 1)
	if got, n := sharedIn(pull(t, c, []protocol.IntersectionStat{is(1, 2, 5)}), 1, 2); got != 5 || n != 1 {
		t.Fatalf("partner live: pair listed %d times sharing %d, want once sharing 5", n, got)
	}
	delete(c.queries, 2)
	finish(c, 2)
	if got, n := sharedIn(pull(t, c, []protocol.IntersectionStat{is(2, 1, 9)}), 1, 2); got != 9 || n != 1 {
		t.Fatalf("partner finished: pair listed %d times sharing %d, want once sharing its 9", n, got)
	}
}

// TestLateReportRefreshesWindowRow: a cancel finishes a query with a step
// outstanding, so the window entry starts from the sizes of the step before;
// the outstanding step's report, arriving after the finish, is the worker's
// final scope size and replaces them.
func TestLateReportRefreshesWindowRow(t *testing.T) {
	c := newLoopless(t, 2)
	ch := make(chan Result, 1)
	c.startQuery(scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}, ch: ch})
	step := func(st, size int32) error {
		return c.onSynch(&protocol.BarrierSynch{
			Q: 1, W: 0, Step: st, FromStep: st, Processed: 1, NActiveNext: 1, ScopeSize: size,
			SentBatches: make([]int32, 2), BestGoal: query.NoResult, MinFrontier: query.NoResult,
		})
	}
	if err := step(0, 2); err != nil {
		t.Fatal(err)
	}
	c.onCancel(1) // step 1 is outstanding
	if res := <-ch; res.Reason != protocol.FinishCancelled {
		t.Fatalf("result %+v, want cancelled", res)
	}
	if got := c.byQ[1].sizes[0]; got != 2 {
		t.Fatalf("window row at the cancel: %d, want step 0's 2", got)
	}
	if err := step(1, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.byQ[1].sizes; got[0] != 3 || got[1] != 0 {
		t.Fatalf("window row after the late report: %v, want [3 0]", got)
	}
}

// TestSnapshotIsAFunctionOfTheView: one view gives one Q-cut input, and
// Q-cut one plan. Q-cut draws a random key per intersection in input order,
// so the input lists live queries by id and intersections by (Q1, Q2)
// rather than in map order — before, one seed gave a different clustering
// per call.
func TestSnapshotIsAFunctionOfTheView(t *testing.T) {
	const k = 3
	c := newLoopless(t, k)
	size := func(q query.ID, w int) int64 { return (int64(q)*7+int64(w)*5)%13 + 1 }
	for q := query.ID(101); q <= 112; q++ {
		sizes := make([]int64, k)
		for w := range sizes {
			sizes[w] = size(q, w)
		}
		c.queries[q] = &qctl{spec: query.Spec{ID: q}, scopeSizes: sizes}
	}
	// Eight finished queries, each overlapping two live ones and the query
	// that finished before it.
	rows := make([][]protocol.IntersectionStat, k)
	for q := query.ID(1); q <= 8; q++ {
		sizes := make([]int64, k)
		for w := range sizes {
			sizes[w] = size(q, w)
			rows[w] = append(rows[w], is(q, 100+q, int32(q)+int32(w)), is(q, 104+q, 2), is(q, q-1, 1))
		}
		c.windowAdd(&qctl{spec: query.Spec{ID: q}, scopeSizes: sizes}, c.cfg.Clock())
	}
	first := pull(t, c, rows...)
	if len(first.Scopes) != 20 || len(first.Intersections) != 23 {
		t.Fatalf("view: %d rows, %d pairs; want 20, 23", len(first.Scopes), len(first.Intersections))
	}
	for i := 1; i < 20; i++ {
		if in := pull(t, c, rows...); !reflect.DeepEqual(in, first) {
			t.Fatalf("call %d built another input from the same view:\n got %+v\nwant %+v", i, in, first)
		}
	}
	a, b := first, pull(t, c, rows...)
	a.Deadline, b.Deadline = time.Time{}, time.Time{}
	pa, pb := qcut.Run(a), qcut.Run(b)
	if len(pa.Moves) == 0 || !reflect.DeepEqual(pa.Moves, pb.Moves) {
		t.Fatalf("one input, two plans:\n%+v\n%+v", pa.Moves, pb.Moves)
	}
}
