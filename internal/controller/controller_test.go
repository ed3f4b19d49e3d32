package controller

import (
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
)

// ctlHarness runs a real controller against scripted fake workers.
type ctlHarness struct {
	t    *testing.T
	net  *transport.ChanNetwork
	ctrl *Controller
	k    int
}

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	return b.MustBuild()
}

func newCtlHarness(t *testing.T, k int, mut func(*Config)) *ctlHarness {
	t.Helper()
	g := lineGraph(8)
	net := transport.NewChanNetwork(k+1, transport.Latency{})
	owner := make(partition.Assignment, g.NumVertices())
	for v := range owner {
		owner[v] = partition.WorkerID(v % k)
	}
	// Heartbeats are disabled by default: these tests script the worker
	// side exactly, and unanswered pings would declare the fakes dead.
	cfg := Config{K: k, Graph: g, Owner: owner, HeartbeatEvery: -1}
	if mut != nil {
		mut(&cfg)
	}
	ctrl, err := New(cfg, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Run()
	t.Cleanup(func() {
		ctrl.Stop()
		net.Close()
	})
	return &ctlHarness{t: t, net: net, ctrl: ctrl, k: k}
}

// expect reads the next message for worker w.
func (h *ctlHarness) expect(w partition.WorkerID) protocol.Message {
	h.t.Helper()
	select {
	case env := <-h.net.Conn(protocol.WorkerNode(w)).Inbox():
		return env.Msg
	case <-time.After(5 * time.Second):
		h.t.Fatalf("timeout waiting for message to worker %d", w)
		return nil
	}
}

func (h *ctlHarness) workerSend(w partition.WorkerID, m protocol.Message) {
	h.t.Helper()
	if err := h.net.Conn(protocol.WorkerNode(w)).Send(protocol.ControllerNode, m); err != nil {
		h.t.Fatal(err)
	}
}

// synch builds a minimal BarrierSynch.
func synch(q query.ID, w partition.WorkerID, step int32, mut func(*protocol.BarrierSynch)) *protocol.BarrierSynch {
	s := &protocol.BarrierSynch{
		Q: q, W: w, Step: step, FromStep: step,
		BestGoal: query.NoResult, MinFrontier: query.NoResult,
		SentBatches: make([]int32, 8),
	}
	if mut != nil {
		mut(s)
	}
	return s
}

// TestScheduleAndConverge: the controller broadcasts the query, releases
// the source owner, and finishes on an all-idle synch.
func TestScheduleAndConverge(t *testing.T) {
	h := newCtlHarness(t, 2, nil)
	ch, err := h.ctrl.Schedule(query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	// Both workers get the ExecuteQuery broadcast.
	if _, ok := h.expect(0).(*protocol.ExecuteQuery); !ok {
		t.Fatal("worker 0 missing ExecuteQuery")
	}
	if _, ok := h.expect(1).(*protocol.ExecuteQuery); !ok {
		t.Fatal("worker 1 missing ExecuteQuery")
	}
	// Source 0 is owned by worker 0: it gets the step-0 release, solo.
	rel, ok := h.expect(0).(*protocol.BarrierReady)
	if !ok || rel.Step != 0 || !rel.Solo {
		t.Fatalf("release = %#v", rel)
	}
	// Report convergence (no active vertices, nothing sent).
	h.workerSend(0, synch(1, 0, 0, func(s *protocol.BarrierSynch) {
		s.SentBatches = make([]int32, 2)
		s.ScopeSize = 1
		s.Processed = 1
	}))
	res := <-ch
	if res.Reason != protocol.FinishConverged || res.Supersteps != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Finish broadcast reaches both workers.
	if _, ok := h.expect(0).(*protocol.QueryFinish); !ok {
		t.Fatal("worker 0 missing QueryFinish")
	}
	if _, ok := h.expect(1).(*protocol.QueryFinish); !ok {
		t.Fatal("worker 1 missing QueryFinish")
	}
}

// TestLimitedBarrierReleasesInvolvedOnly: only workers with pending work
// get the next release, with correct Expect counts.
func TestLimitedBarrierReleasesInvolvedOnly(t *testing.T) {
	h := newCtlHarness(t, 3, nil)
	ch, err := h.ctrl.Schedule(query.Spec{ID: 2, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	for w := partition.WorkerID(0); w < 3; w++ {
		h.expect(w) // ExecuteQuery
	}
	h.expect(0) // release step 0

	// Worker 0 sends 2 batches to worker 1, keeps local work too.
	h.workerSend(0, synch(2, 0, 0, func(s *protocol.BarrierSynch) {
		s.SentBatches = []int32{0, 2, 0}
		s.NActiveNext = 3
		s.Processed = 1
		s.ScopeSize = 1
	}))
	rel0, ok := h.expect(0).(*protocol.BarrierReady)
	if !ok || rel0.Step != 1 || rel0.Solo || rel0.Expect != 0 {
		t.Fatalf("worker0 release = %#v", rel0)
	}
	rel1, ok := h.expect(1).(*protocol.BarrierReady)
	if !ok || rel1.Expect != 2 {
		t.Fatalf("worker1 release = %#v", rel1)
	}
	// Worker 2 must NOT be released: nothing pending there. Both involved
	// workers converge; worker 2 sees only the finish broadcast.
	h.workerSend(0, synch(2, 0, 1, func(s *protocol.BarrierSynch) { s.SentBatches = make([]int32, 3) }))
	h.workerSend(1, synch(2, 1, 1, func(s *protocol.BarrierSynch) {
		s.SentBatches = make([]int32, 3)
		s.Processed = 2
	}))
	<-ch
	if _, ok := h.expect(2).(*protocol.QueryFinish); !ok {
		t.Fatal("worker 2 should only see the finish broadcast")
	}
}

// TestEarlyTermination: a monotone query ends once the frontier bound
// cannot beat the best goal.
func TestEarlyTermination(t *testing.T) {
	h := newCtlHarness(t, 2, nil)
	ch, err := h.ctrl.Schedule(query.Spec{ID: 3, Kind: query.KindSSSP, Source: 0, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.expect(0)
	h.expect(1)
	h.expect(0) // release
	h.workerSend(0, synch(3, 0, 0, func(s *protocol.BarrierSynch) {
		s.SentBatches = make([]int32, 2)
		s.NActiveNext = 5 // still active…
		s.BestGoal = 10   // …but the target is settled at 10
		s.MinFrontier = 12
		s.Processed = 1
	}))
	res := <-ch
	if res.Reason != protocol.FinishEarly || res.Value != 10 {
		t.Fatalf("result = %+v", res)
	}
}

// TestMaxItersTermination: the superstep cap finishes the query.
func TestMaxItersTermination(t *testing.T) {
	h := newCtlHarness(t, 2, nil)
	ch, err := h.ctrl.Schedule(query.Spec{ID: 4, Kind: query.KindPageRank, Source: 0, MaxIters: 1, Epsilon: 1e-6, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	h.expect(0)
	h.expect(1)
	h.expect(0)
	h.workerSend(0, synch(4, 0, 0, func(s *protocol.BarrierSynch) {
		s.SentBatches = make([]int32, 2)
		s.NActiveNext = 3
		s.Processed = 1
	}))
	res := <-ch
	if res.Reason != protocol.FinishMaxIters {
		t.Fatalf("result = %+v", res)
	}
}

// TestGlobalModeReleasesAll: in SyncGlobal mode every worker participates
// in every barrier (Fig. 6d baseline).
func TestGlobalModeReleasesAll(t *testing.T) {
	h := newCtlHarness(t, 3, func(c *Config) { c.Mode = SyncGlobal })
	_, err := h.ctrl.Schedule(query.Spec{ID: 5, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	for w := partition.WorkerID(0); w < 3; w++ {
		h.expect(w) // ExecuteQuery
	}
	for w := partition.WorkerID(0); w < 3; w++ {
		rel, ok := h.expect(w).(*protocol.BarrierReady)
		if !ok || rel.Solo {
			t.Fatalf("worker %d: expected non-solo release, got %#v", w, rel)
		}
	}
}

// TestStopCancelsActive: stopping the controller delivers cancelled
// results instead of blocking callers.
func TestStopCancelsActive(t *testing.T) {
	h := newCtlHarness(t, 2, nil)
	ch, err := h.ctrl.Schedule(query.Spec{ID: 6, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Stop()
	res := <-ch
	if res.Reason != protocol.FinishCancelled {
		t.Fatalf("result = %+v", res)
	}
	if _, err := h.ctrl.Schedule(query.Spec{ID: 7, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}); err == nil {
		t.Fatal("schedule after stop accepted")
	}
}

// TestDuplicateSynchIsError: protocol violations surface as Run errors.
func TestDuplicateSynchIsError(t *testing.T) {
	g := lineGraph(8)
	net := transport.NewChanNetwork(3, transport.Latency{})
	defer net.Close()
	owner := make(partition.Assignment, g.NumVertices())
	ctrl, err := New(Config{K: 2, Graph: g, Owner: owner}, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- ctrl.Run() }()
	ch, err := ctrl.Schedule(query.Spec{ID: 8, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	_ = ch
	w0 := net.Conn(protocol.WorkerNode(0))
	// Drain worker 0's execute+release, then synch twice for the same step
	// — but first synch keeps the query outstanding so the duplicate is a
	// protocol violation.
	<-w0.Inbox()
	<-w0.Inbox()
	bad := synch(8, 0, 0, func(s *protocol.BarrierSynch) {
		s.SentBatches = []int32{0, 1}
		s.NActiveNext = 1
	})
	w0.Send(protocol.ControllerNode, bad)
	// The controller released step 1 to workers 0 and 1; a synch from an
	// uninvolved... send a duplicate for step 1 from worker 0.
	<-w0.Inbox() // release step 1
	s1 := synch(8, 0, 1, func(s *protocol.BarrierSynch) {
		s.SentBatches = make([]int32, 2)
		s.NActiveNext = 1
	})
	w0.Send(protocol.ControllerNode, s1)
	w0.Send(protocol.ControllerNode, s1)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected protocol error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("controller did not fail on duplicate synch")
	}
}

// TestCheckpointPrivateStoreNeverTruncates: a controller whose snapshot
// store was not wired in (Config.Snapshots nil -> a private store nobody
// else can resolve checkpoints from) must cut without truncating the op
// log — a grant based past a private snapshot would strand every future
// rejoiner. A shared store truncates as usual.
func TestCheckpointPrivateStoreNeverTruncates(t *testing.T) {
	commitOne := func(c *Controller) {
		ops := []delta.Op{{Kind: delta.OpAddVertex}}
		nv, _, err := c.curView.Load().Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		c.curView.Store(nv)
		if err := c.deltaLog.Append(nv.Version(), ops); err != nil {
			t.Fatal(err)
		}
	}
	g := lineGraph(8)
	owner := make(partition.Assignment, g.NumVertices())

	private, err := New(Config{K: 1, Graph: g, Owner: owner, HeartbeatEvery: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the async cut machinery by hand (no Run loop in this test):
	// request, land the cutter's report, read the reply.
	cut := func(c *Controller) snapshot.Result {
		ch := make(chan snapshot.Result, 1)
		c.requestCheckpoint(ch)
		c.onCutDone(<-c.cutCh)
		return <-ch
	}

	commitOne(private)
	res := cut(private)
	if !res.Cut || res.TruncatedOps != 0 {
		t.Fatalf("private-store cut = %+v, want Cut with zero truncation", res)
	}
	if private.deltaLog.Base() != 0 || private.deltaLog.Ops() != 1 {
		t.Fatalf("private store truncated the log (base %d, ops %d)",
			private.deltaLog.Base(), private.deltaLog.Ops())
	}

	shared, err := New(Config{
		K: 1, Graph: g, Owner: owner, HeartbeatEvery: -1,
		Snapshots: snapshot.NewStore("", 0),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitOne(shared)
	res = cut(shared)
	if !res.Cut || res.TruncatedOps != 1 || shared.deltaLog.Base() != 1 {
		t.Fatalf("shared-store cut = %+v (base %d), want one op truncated", res, shared.deltaLog.Base())
	}
}

// TestQcutSnapshotPullsAndStops: QcutSnapshot returns once every worker
// answered its StatsPull, and a QcutSnapshot whose pull a worker never
// answers returns an error when the controller stops, instead of blocking.
func TestQcutSnapshotPullsAndStops(t *testing.T) {
	h := newCtlHarness(t, 2, nil)
	type answer struct {
		in  qcut.Input
		err error
	}
	snap := func() chan answer {
		ch := make(chan answer, 1)
		go func() {
			in, err := h.ctrl.QcutSnapshot()
			ch <- answer{in, err}
		}()
		return ch
	}
	pulled := func(w partition.WorkerID) *protocol.StatsPull {
		t.Helper()
		m, ok := h.expect(w).(*protocol.StatsPull)
		if !ok {
			t.Fatalf("worker %d got %T, want a StatsPull", w, m)
		}
		return m
	}

	ch := snap()
	for w := partition.WorkerID(0); w < 2; w++ {
		h.workerSend(w, &protocol.StatsReport{Seq: pulled(w).Seq, W: w})
	}
	select {
	case a := <-ch:
		if a.err != nil || a.in.K != 2 {
			t.Fatalf("answered pull: %+v, %v", a.in, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("QcutSnapshot still waits with both workers answered")
	}

	ch = snap()
	h.workerSend(0, &protocol.StatsReport{Seq: pulled(0).Seq, W: 0})
	pulled(1) // and never answered
	h.ctrl.Stop()
	select {
	case a := <-ch:
		if a.err == nil {
			t.Fatalf("QcutSnapshot returned %+v from a pull worker 1 never answered", a.in)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("QcutSnapshot blocks after Stop")
	}
}
