package controller

import (
	"reflect"
	"testing"
	"time"

	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// newLoopless builds a controller whose event loop never runs: the window
// tests call its handlers directly, in the order the loop would.
func newLoopless(t *testing.T, k int, mut ...func(*Config)) *Controller {
	t.Helper()
	g := lineGraph(8)
	net := transport.NewChanNetwork(k+1, transport.Latency{})
	t.Cleanup(func() { net.Close() })
	cfg := Config{K: k, Graph: g, Owner: make(partition.Assignment, g.NumVertices()), HeartbeatEvery: -1}
	for _, m := range mut {
		m(&cfg)
	}
	c, err := New(cfg, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// finish puts query q into the window and delivers each worker's final
// report: shared[w] is what worker w found q to share with partner (0 = the
// worker lists nothing, as a worker does for an empty overlap).
func finish(t *testing.T, c *Controller, q, partner query.ID, shared ...int32) {
	t.Helper()
	c.windowAdd(&qctl{spec: query.Spec{ID: q}, scopeSizes: make([]int64, c.cfg.K)}, c.cfg.Clock())
	for w, s := range shared {
		m := &protocol.BarrierSynch{Q: q, W: partition.WorkerID(w), ScopeSize: 10, Finished: true}
		if s > 0 {
			m.Intersections = []protocol.IntersectionStat{{Q1: q, Q2: partner, Shared: s}}
		}
		if err := c.onSynch(m); err != nil {
			t.Fatal(err)
		}
	}
}

// moveAck executes move(LS(q, from), from, to) as far as the view goes.
func moveAck(t *testing.T, c *Controller, q query.ID, from, to partition.WorkerID) {
	t.Helper()
	c.phase, c.epoch, c.acksLeft = phaseMoving, 1, 2 // mid-barrier, more acks to come
	if err := c.onMoveAck(&protocol.MoveAck{Epoch: 1, Q: q, From: from, To: to}); err != nil {
		t.Fatal(err)
	}
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
// intersection rows as it drops its scope sizes. (Before the statistics
// moved onto the window entry they sat in a map keyed by worker that the
// live-set mask never looked at, so a dead worker's overlaps kept gluing
// queries together for as long as the controller ran.)
func TestDeadWorkerIntersectionsMasked(t *testing.T) {
	c := newLoopless(t, 2)
	finish(t, c, 1, 0)
	finish(t, c, 2, 1, 3, 4)
	if got, n := sharedIn(c.snapshot(c.cfg.Clock()), 1, 2); got != 7 || n != 1 {
		t.Fatalf("both workers live: pair listed %d times sharing %d, want once sharing 7", n, got)
	}
	c.deadWorkers[0] = true
	if got, _ := sharedIn(c.snapshot(c.cfg.Clock()), 1, 2); got != 4 {
		t.Fatalf("worker 0 dead: pair shares %d, want worker 1's 4", got)
	}
	c.deadWorkers[1] = true
	if in := c.snapshot(c.cfg.Clock()); len(in.Intersections) != 0 {
		t.Fatalf("no worker live: %+v", in.Intersections)
	}
}

// TestMoveAckCarriesIntersections: an executed move relocates the moved
// query's intersection rows with its scope sizes, and nothing stale stays
// behind at the source. (Before, the source worker's last per-worker stat
// for the pair stayed in the map — a worker does not report an overlap
// that dropped to zero — and was added to what the target reported next.)
func TestMoveAckCarriesIntersections(t *testing.T) {
	c := newLoopless(t, 2)
	finish(t, c, 1, 0)

	// Query 2 is live and overlaps finished query 1 on worker 0. A non-final
	// report saying so is legal on the wire; then 1's scope moves to worker
	// 1, taking 2's values on those vertices along, and 2 finishes there.
	if err := c.onSynch(&protocol.BarrierSynch{Q: 2, W: 0, Intersections: []protocol.IntersectionStat{{Q1: 2, Q2: 1, Shared: 5}}}); err != nil {
		t.Fatal(err)
	}
	moveAck(t, c, 1, 0, 1)
	finish(t, c, 2, 1, 0, 5)
	if got, _ := sharedIn(c.snapshot(c.cfg.Clock()), 1, 2); got != 5 {
		t.Fatalf("pair (1,2) shares %d after the move, want the target's 5", got)
	}

	// Query 3 finished on both workers; its scope on worker 0 moves to 1.
	finish(t, c, 3, 1, 2, 6)
	moveAck(t, c, 3, 0, 1)
	we := c.byQ[3]
	if len(we.inter[0]) != 0 || len(we.inter[1]) != 2 {
		t.Fatalf("rows after the move: source %+v, target %+v", we.inter[0], we.inter[1])
	}
	c.deadWorkers[0] = true
	if got, n := sharedIn(c.snapshot(c.cfg.Clock()), 1, 3); got != 8 || n != 1 {
		t.Fatalf("source dead after the move: pair listed %d times sharing %d, want once sharing 8", n, got)
	}
}

// TestIntersectionsLeaveWithTheWindowEntry: the global view holds no
// statistic the window does not — a pair disappears from Q-cut's input when
// either of its queries is evicted, and the evicted reporter's rows are
// unreachable.
func TestIntersectionsLeaveWithTheWindowEntry(t *testing.T) {
	c := newLoopless(t, 2)
	finish(t, c, 1, 0)
	for q := query.ID(2); q <= protocol.WindowQueries; q++ {
		finish(t, c, q, q-1, 1, 1)
	}
	in := c.snapshot(c.cfg.Clock())
	if len(in.Scopes) != protocol.WindowQueries || len(in.Intersections) != protocol.WindowQueries-1 {
		t.Fatalf("full window: %d rows, %d pairs", len(in.Scopes), len(in.Intersections))
	}
	// One more finish evicts query 1: pair (1,2), held on 2's entry, goes
	// because its partner left; a second evicts 2 and its rows with it.
	finish(t, c, protocol.WindowQueries+1, protocol.WindowQueries, 1, 1)
	finish(t, c, protocol.WindowQueries+2, protocol.WindowQueries+1, 1, 1)
	in = c.snapshot(c.cfg.Clock())
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

// TestLaterFinisherSupersedes: a query names a live partner in its final
// report with the part of the partner's scope that exists by then; when the
// partner finishes, its own report — both scopes final — replaces that
// estimate instead of adding to it.
func TestLaterFinisherSupersedes(t *testing.T) {
	c := newLoopless(t, 2)
	c.queries[2] = &qctl{spec: query.Spec{ID: 2}, scopeSizes: make([]int64, 2)}
	finish(t, c, 1, 2, 5)
	if got, n := sharedIn(c.snapshot(c.cfg.Clock()), 1, 2); got != 5 || n != 1 {
		t.Fatalf("partner live: pair listed %d times sharing %d, want once sharing 5", n, got)
	}
	delete(c.queries, 2)
	finish(t, c, 2, 1, 9)
	if got, n := sharedIn(c.snapshot(c.cfg.Clock()), 1, 2); got != 9 || n != 1 {
		t.Fatalf("partner finished: pair listed %d times sharing %d, want once sharing its 9", n, got)
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
	for q := query.ID(1); q <= 8; q++ {
		c.windowAdd(&qctl{spec: query.Spec{ID: q}, scopeSizes: make([]int64, k)}, c.cfg.Clock())
		for w := 0; w < k; w++ {
			err := c.onSynch(&protocol.BarrierSynch{
				Q: q, W: partition.WorkerID(w), ScopeSize: int32(size(q, w)), Finished: true,
				Intersections: []protocol.IntersectionStat{
					{Q1: q, Q2: 100 + q, Shared: int32(q) + int32(w)},
					{Q1: q, Q2: 104 + q, Shared: 2},
					{Q1: q, Q2: q - 1, Shared: 1},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	now := c.cfg.Clock()
	first := c.snapshot(now)
	if len(first.Scopes) != 20 || len(first.Intersections) != 23 {
		t.Fatalf("view: %d rows, %d pairs; want 20, 23", len(first.Scopes), len(first.Intersections))
	}
	for i := 1; i < 20; i++ {
		if in := c.snapshot(now); !reflect.DeepEqual(in, first) {
			t.Fatalf("call %d built another input from the same view:\n got %+v\nwant %+v", i, in, first)
		}
	}
	a, b := first, c.snapshot(now)
	a.Deadline, b.Deadline = time.Time{}, time.Time{}
	pa, pb := qcut.Run(a), qcut.Run(b)
	if len(pa.Moves) == 0 || !reflect.DeepEqual(pa.Moves, pb.Moves) {
		t.Fatalf("one input, two plans:\n%+v\n%+v", pa.Moves, pb.Moves)
	}
}
