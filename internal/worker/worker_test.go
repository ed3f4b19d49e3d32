package worker

import (
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
)

// harness drives one or two real workers through a scripted controller.
type harness struct {
	t   *testing.T
	net *transport.ChanNetwork
	g   *graph.Graph
	k   int
}

// lineGraph builds 0 ↔ 1 ↔ … ↔ n-1 with unit weights.
func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	return b.MustBuild()
}

// newHarness starts k real workers on the in-process network; vertices
// 0..2 on worker 0, 3..4 on worker 1 (when k=2).
func newHarness(t *testing.T, k int) *harness {
	t.Helper()
	g := lineGraph(5)
	net := transport.NewChanNetwork(k + 1)
	owner := make(partition.Assignment, g.NumVertices())
	for v := range owner {
		if k > 1 && v >= 3 {
			owner[v] = 1
		}
	}
	for w := 0; w < k; w++ {
		wk, err := New(Config{
			ID: partition.WorkerID(w), K: k, Graph: g, Owner: owner,
		}, net.Conn(protocol.WorkerNode(partition.WorkerID(w))))
		if err != nil {
			t.Fatal(err)
		}
		go wk.Run()
	}
	t.Cleanup(func() { net.Close() })
	return &harness{t: t, net: net, g: g, k: k}
}

func (h *harness) send(w partition.WorkerID, m protocol.Message) {
	h.t.Helper()
	if err := h.net.Conn(protocol.ControllerNode).Send(protocol.WorkerNode(w), m); err != nil {
		h.t.Fatal(err)
	}
}

// recv waits for the next message at the controller.
func (h *harness) recv() protocol.Message {
	h.t.Helper()
	return h.recvEnv().Msg
}

// recvEnv waits for the next message at the controller, with its sender.
func (h *harness) recvEnv() transport.Envelope {
	h.t.Helper()
	select {
	case env := <-h.net.Conn(protocol.ControllerNode).Inbox():
		return env
	case <-time.After(5 * time.Second):
		h.t.Fatal("timeout waiting for worker message")
		return transport.Envelope{}
	}
}

func (h *harness) recvSynch() *protocol.BarrierSynch {
	h.t.Helper()
	m, ok := h.recv().(*protocol.BarrierSynch)
	if !ok {
		h.t.Fatalf("expected BarrierSynch, got %T", m)
	}
	return m
}

// TestSingleWorkerQueryLifecycle drives a BFS flood on one worker through
// the raw protocol and checks every synch field.
func TestSingleWorkerQueryLifecycle(t *testing.T) {
	h := newHarness(t, 1)
	spec := query.Spec{ID: 7, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}
	h.send(0, &protocol.ExecuteQuery{Spec: spec})
	h.send(0, &protocol.BarrierReady{Q: 7, Step: 0, BestGoal: query.NoResult})

	s := h.recvSynch()
	if s.Q != 7 || s.W != 0 || s.Step != 0 || s.Processed != 1 {
		t.Fatalf("step0 synch: %+v", s)
	}
	if s.NActiveNext != 1 { // vertex 1 activated locally
		t.Fatalf("NActiveNext = %d", s.NActiveNext)
	}
	// Drive remaining steps one at a time (non-solo release).
	for step := int32(1); ; step++ {
		h.send(0, &protocol.BarrierReady{Q: 7, Step: step, BestGoal: query.NoResult})
		s = h.recvSynch()
		if s.Step != step {
			t.Fatalf("synch for step %d, want %d", s.Step, step)
		}
		if s.NActiveNext == 0 {
			break
		}
	}
	if s.ScopeSize != 5 {
		t.Fatalf("final scope size %d, want 5", s.ScopeSize)
	}
	// The finish gets no reply: the next message answers the pull behind it.
	h.send(0, &protocol.QueryFinish{Q: 7, Reason: protocol.FinishConverged})
	h.send(0, &protocol.StatsPull{Seq: 3})
	if rep, ok := h.recv().(*protocol.StatsReport); !ok || rep.Seq != 3 || rep.W != 0 || len(rep.Pairs) != 0 {
		t.Fatalf("StatsPull answered with %+v", rep)
	}
}

// TestSoloLoopReportsOnce: a release to one worker alone, a run of one,
// runs the whole local query and reports one multi-step synch with
// LocalIters accounting.
func TestSoloLoopReportsOnce(t *testing.T) {
	h := newHarness(t, 1)
	spec := query.Spec{ID: 9, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}
	h.send(0, &protocol.ExecuteQuery{Spec: spec})
	h.send(0, &protocol.BarrierReady{Q: 9, Step: 0, BestGoal: query.NoResult, Peers: []partition.WorkerID{0}})
	s := h.recvSynch()
	// Line graph 0→4: activations at steps 0..4, step 4 activates nothing
	// beyond vertex 4... vertex 4's compute at step 4 emits to 3 (worse,
	// no change) so step 5 has no activity; loop ends when NActiveNext==0.
	if s.FromStep != 0 || s.NActiveNext != 0 {
		t.Fatalf("solo synch: %+v", s)
	}
	if s.LocalIters != s.Step-s.FromStep {
		t.Fatalf("LocalIters %d != %d", s.LocalIters, s.Step-s.FromStep)
	}
	if s.ScopeSize != 5 {
		t.Fatalf("scope %d", s.ScopeSize)
	}
}

// TestRemoteBatchesAndExpect: messages crossing the 0|1 boundary are
// batched, counted, and the receiving worker honors the Expect count.
func TestRemoteBatchesAndExpect(t *testing.T) {
	h := newHarness(t, 2)
	spec := query.Spec{ID: 11, Kind: query.KindBFS, Source: 2, Target: graph.NilVertex}
	h.send(0, &protocol.ExecuteQuery{Spec: spec})
	h.send(1, &protocol.ExecuteQuery{Spec: spec})
	h.send(0, &protocol.BarrierReady{Q: 11, Step: 0, BestGoal: query.NoResult})
	s := h.recvSynch()
	if s.W != 0 || s.SentBatches[1] != 1 {
		t.Fatalf("step0 synch: %+v", s)
	}
	// Release worker 1 for step 1 expecting that batch; worker 0 also has
	// local activation (vertex 1).
	h.send(0, &protocol.BarrierReady{Q: 11, Step: 1, BestGoal: query.NoResult})
	h.send(1, &protocol.BarrierReady{Q: 11, Step: 1, Expect: 1, BestGoal: query.NoResult})
	got := map[partition.WorkerID]*protocol.BarrierSynch{}
	for len(got) < 2 {
		s := h.recvSynch()
		got[s.W] = s
	}
	if got[1].Processed != 1 {
		t.Fatalf("worker 1 processed %d, want 1 (vertex 3)", got[1].Processed)
	}
}

// TestOneBatchPerPeerPerSuperstep: a superstep's combined output for a peer
// leaves as one VertexBatch, split only at the batch cap, and the report
// counts the batches that peer must await. The hub of a star sends one entry
// to each of the peer's leaves. A full batch's frame must fit the 64 KiB
// buffer a TCP connection keeps for reading (transport's keepBuf).
func TestOneBatchPerPeerPerSuperstep(t *testing.T) {
	for _, tc := range []struct{ remote, want int }{{100, 1}, {2730, 1}, {2731, 2}} {
		remote, want := tc.remote, tc.want
		n := 2*remote + 1
		b := graph.NewBuilder(n)
		owner := make(partition.Assignment, n)
		for v := 1; v < n; v++ {
			b.AddBiEdge(0, graph.VertexID(v), 1)
			owner[v] = partition.WorkerID(v % 2)
		}
		s := newSyncWorkerOn(t, 2, b.MustBuild(), owner)
		s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}})
		s.deliver(&protocol.BarrierReady{Q: 1, Step: 0, BestGoal: query.NoResult})
		batches, entries := 0, 0
		var synch *protocol.BarrierSynch
		for _, m := range s.conn.sent {
			switch m := m.(type) {
			case *protocol.VertexBatch:
				batches++
				entries += len(m.Entries)
				if size := transport.WireSize(m); size > 1<<16 {
					t.Fatalf("%d remote entries: a %d-byte frame, over 64 KiB", remote, size)
				}
			case *protocol.BarrierSynch:
				synch = m
			}
		}
		if batches != want || entries != remote || synch == nil || synch.SentBatches[1] != int32(want) {
			t.Fatalf("%d remote entries: %d batches carrying %d, report %+v; want %d batches", remote, batches, entries, synch, want)
		}
	}
}

// TestEarlyBatchBuffered: a vertex batch arriving before ExecuteQuery is
// buffered and replayed, not lost.
func TestEarlyBatchBuffered(t *testing.T) {
	h2 := newHarness(t, 2)
	spec := query.Spec{ID: 13, Kind: query.KindBFS, Source: 2, Target: graph.NilVertex}
	// Worker 1 gets a batch for query 13 before its ExecuteQuery.
	if err := h2.net.Conn(protocol.WorkerNode(0)).Send(protocol.WorkerNode(1), &protocol.VertexBatch{
		Q: 13, Step: 0, From: 0,
		Entries: []protocol.VertexMsg{{To: 3, Val: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	h2.send(1, &protocol.ExecuteQuery{Spec: spec})
	h2.send(1, &protocol.BarrierReady{Q: 13, Step: 1, Expect: 1, BestGoal: query.NoResult})
	s := h2.recvSynch()
	if s.W != 1 || s.Processed != 1 {
		t.Fatalf("replayed batch not processed: %+v", s)
	}
}

// TestGlobalBarrierProtocol drives stop → markers → StopAck → move → the
// receiver's MoveAck → start across two workers, and the moved scope lands
// intact. Its delivery orders beyond the in-process network's causal one
// (controller messages overtaking the workers', a batch still in flight at
// the stop) are TestBarrierConformance's, in internal/controller.
func TestGlobalBarrierProtocol(t *testing.T) {
	t.Run("move", func(t *testing.T) {
		h := newHarness(t, 2)
		spec := query.Spec{ID: 21, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}
		h.send(0, &protocol.ExecuteQuery{Spec: spec})
		h.send(1, &protocol.ExecuteQuery{Spec: spec})
		h.send(0, &protocol.BarrierReady{Q: 21, Step: 0, BestGoal: query.NoResult, Peers: []partition.WorkerID{0}})
		s := h.recvSynch() // worker 0 runs until it must send to worker 1
		if s.SentBatches[1] == 0 {
			t.Fatalf("expected boundary crossing, got %+v", s)
		}

		// Global barrier instead of releasing the next step.
		live := []partition.WorkerID{0, 1}
		h.send(0, &protocol.GlobalStop{Epoch: 1, Live: live})
		h.send(1, &protocol.GlobalStop{Epoch: 1, Live: live})
		acks := map[partition.WorkerID]bool{}
		for len(acks) < 2 {
			m, ok := h.recv().(*protocol.StopAck)
			if !ok || m.Epoch != 1 {
				t.Fatalf("expected StopAck of epoch 1, got %#v", m)
			}
			acks[m.W] = true
		}
		// Move query 21's scope from worker 0 to worker 1; the receiver
		// acknowledges it.
		h.send(0, &protocol.MoveScope{Epoch: 1, Q: 21, To: 1})
		env := h.recvEnv()
		mv, ok := env.Msg.(*protocol.MoveAck)
		if !ok || mv.From != 0 || mv.To != 1 || env.From != protocol.WorkerNode(1) {
			t.Fatalf("expected worker 1's MoveAck, got %#v from node %d", env.Msg, env.From)
		}
		if len(mv.Vertices) != 3 {
			t.Fatalf("moved %d vertices, want 3 (worker 0's scope)", len(mv.Vertices))
		}
		h.send(0, &protocol.GlobalStart{Epoch: 1})
		h.send(1, &protocol.GlobalStart{Epoch: 1})

		// Resume: release both with drained. Worker 1 holds the batch,
		// everything the query touched and its pending messages; worker 0 is
		// empty.
		h.send(0, &protocol.BarrierReady{Q: 21, Step: s.Step + 1, Drained: true, BestGoal: query.NoResult})
		h.send(1, &protocol.BarrierReady{Q: 21, Step: s.Step + 1, Drained: true, BestGoal: query.NoResult})
		got := map[partition.WorkerID]*protocol.BarrierSynch{}
		for len(got) < 2 {
			r := h.recvSynch()
			got[r.W] = r
		}
		if got[0].Processed != 0 || got[0].ScopeSize != 0 {
			t.Fatalf("worker 0 still has state after move: %+v", got[0])
		}
		if got[1].Processed == 0 {
			t.Fatalf("worker 1 processed nothing after the barrier: %+v", got[1])
		}
	})
}

// TestPartitionGrantFallbackToNewerSnapshot: when the exact checkpoint a
// grant names is gone, the replay falls back to a newer local snapshot
// inside the grant's batch range, skipping the batches it already covers —
// and a base the tail cannot connect to fails loudly, never silently.
func TestPartitionGrantFallbackToNewerSnapshot(t *testing.T) {
	g := lineGraph(5)
	ops := func(v int) []delta.Op {
		return []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: graph.VertexID(v % 5), Weight: float32(v)}}
	}
	// Committed history 1..4; the store only holds a checkpoint at 2.
	live := delta.NewView(g)
	snapStore := snapshot.NewStore("", 0)
	var batches []delta.LogBatch
	for v := 1; v <= 4; v++ {
		nv, _, err := live.Apply(ops(v))
		if err != nil {
			t.Fatal(err)
		}
		live = nv
		batches = append(batches, delta.LogBatch{Version: uint64(v), Ops: ops(v)})
		if v == 2 {
			if _, err := snapStore.Add(&snapshot.Snapshot{Version: 2, Graph: live.Materialize()}); err != nil {
				t.Fatal(err)
			}
		}
	}

	owner := make(partition.Assignment, g.NumVertices())
	net := transport.NewChanNetwork(2)
	defer net.Close()
	wk, err := New(Config{
		ID: 0, K: 1, Graph: g, Owner: owner, Rejoin: true, Snapshots: snapStore,
	}, net.Conn(protocol.WorkerNode(0)))
	if err != nil {
		t.Fatal(err)
	}

	// The grant names checkpoint 1 (not in the store) and ships the tail
	// from there; the worker must fall back to its snapshot at 2.
	grant := &protocol.PartitionGrant{
		Gen: 1, Version: 4, Owner: owner,
		BaseVersion: 1, Batches: batches[1:], // versions 2..4
	}
	if err := wk.onPartitionGrant(grant); err != nil {
		t.Fatalf("fallback grant failed: %v", err)
	}
	if v := wk.View().Version(); v != 4 {
		t.Fatalf("rejoined at version %d, want 4", v)
	}
	// Only the batches past the fallback snapshot replayed (3 and 4).
	if got := wk.ReplayedOps(); got != 2 {
		t.Fatalf("replayed %d ops, want 2", got)
	}
	if wk.View().NumEdges() != live.NumEdges() {
		t.Fatalf("fallback replay diverged: %d edges, want %d", wk.View().NumEdges(), live.NumEdges())
	}

	// A tail that cannot connect to any local base is an explicit error.
	wk2, err := New(Config{
		ID: 0, K: 1, Graph: g, Owner: owner, Rejoin: true, Snapshots: snapshot.NewStore("", 0),
	}, net.Conn(protocol.WorkerNode(0)))
	if err != nil {
		t.Fatal(err)
	}
	gap := &protocol.PartitionGrant{
		Gen: 1, Version: 4, Owner: owner,
		BaseVersion: 1, Batches: batches[3:], // only version 4: gap (1, 3]
	}
	if err := wk2.onPartitionGrant(gap); err == nil {
		t.Fatal("disconnected grant tail accepted (silent divergence)")
	}
}

// TestRejoinTakesOnlyItsOwnGrant: a survivor's grant that reaches the
// endpoint a rejoining worker took over was addressed to its dead
// predecessor. The rejoining worker ignores it, at its own base version as
// at any other, and is admitted by the grant that answers its hello.
func TestRejoinTakesOnlyItsOwnGrant(t *testing.T) {
	owner := partition.Assignment{0, 0, 0, 1, 1}
	s := &syncWorker{t: t, conn: &recConn{}}
	w, err := New(Config{ID: 0, K: 2, Graph: lineGraph(5), Owner: owner, Rejoin: true}, s.conn)
	if err != nil {
		t.Fatal(err)
	}
	s.w = w
	for _, version := range []uint64{0, 3} {
		s.deliver(&protocol.PartitionGrant{Gen: 1, Version: version, Owner: owner})
		if !w.joining || len(s.conn.sent) != 0 {
			t.Fatalf("a survivor's grant at version %d: joining %v, sent %v", version, w.joining, s.conn.sent)
		}
	}
	s.deliver(&protocol.PartitionGrant{Gen: 2, Rejoin: true, Owner: owner})
	if ack, ok := s.conn.sent[0].(*protocol.PartitionAck); w.joining || len(s.conn.sent) != 1 || !ok || ack.Gen != 2 {
		t.Fatalf("its own grant: joining %v, sent %v", w.joining, s.conn.sent)
	}
}

// TestReplicaDivergenceIsFatal: the controller applies and fsyncs a batch
// before it broadcasts it, and each link is FIFO, so a live replica is
// never ahead of the version a survivor's PartitionGrant names, never sees
// a batch twice, and is at exactly the version an ExecuteQuery is pinned
// at. Any of these means the replica left the version chain — an error that
// stops the worker, not a rollback, a silent re-ack or a query on the wrong
// graph.
func TestReplicaDivergenceIsFatal(t *testing.T) {
	g := lineGraph(5)
	owner := make(partition.Assignment, g.NumVertices())
	batch := &protocol.DeltaBatch{Version: 1, Ops: []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 4, Weight: 1}}}
	cases := []struct {
		name string
		msg  func(w *Worker) error // delivered to a replica at version 1
	}{
		{"survivor grant below the replica", func(w *Worker) error {
			return w.onRecover(&protocol.PartitionGrant{Gen: 1, Version: 0, Owner: owner})
		}},
		{"delta batch repeated", func(w *Worker) error { return w.onDeltaBatch(batch) }},
		{"execute pinned at another version", func(w *Worker) error {
			return w.onExecute(&protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: query.KindSSSP, Source: 0, Target: 4, PinVersion: 0}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewChanNetwork(2)
			defer net.Close()
			wk, err := New(Config{ID: 0, K: 1, Graph: g, Owner: owner}, net.Conn(protocol.WorkerNode(0)))
			if err != nil {
				t.Fatal(err)
			}
			if err := wk.onDeltaBatch(batch); err != nil {
				t.Fatalf("first delivery of version 1: %v", err)
			}
			err = tc.msg(wk)
			if err == nil || !strings.Contains(err.Error(), "replica divergence") {
				t.Fatalf("got %v, want a replica divergence error", err)
			}
			if v := wk.View().Version(); v != 1 {
				t.Fatalf("replica moved to version %d on a divergent message, want 1", v)
			}
		})
	}
}

// TestMisroutedBatchIsAnError: ownership changes only while the network is
// drained, so a batch entry for a vertex this worker does not own is a
// protocol error that names the query, the step and the sender. Forwarding
// it would count against a peer's Expect that no report announced; an id
// past the graph must not crash the worker.
func TestMisroutedBatchIsAnError(t *testing.T) {
	for _, v := range []graph.VertexID{4, 99, -1} { // worker 1's, past the graph, negative
		s := newSyncWorkerOn(t, 2, lineGraph(5), partition.Assignment{0, 0, 0, 1, 1})
		s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 3, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}})
		err := s.send(&protocol.VertexBatch{Q: 3, Step: 0, From: 1, Entries: []protocol.VertexMsg{{To: 1, Val: 1}, {To: v, Val: 1}}})
		if err == nil || !strings.Contains(err.Error(), "query 3: batch of step 0 from worker 1") {
			t.Fatalf("vertex %d: got %v, want a protocol error naming query, step and sender", v, err)
		}
		for _, m := range s.conn.sent {
			if _, ok := m.(*protocol.VertexBatch); ok {
				t.Fatalf("vertex %d: the entry was forwarded as %+v", v, m)
			}
		}
	}
}

// TestThirdLiveSuperstepIsAnError: a query's table holds a vertex's
// messages for two supersteps, in lanes by the superstep's parity, which is
// all the barrier lets be live. A batch for the superstep after next is a
// protocol error the worker returns: at once if its vertex's lane is taken,
// else when the lane's superstep runs.
func TestThirdLiveSuperstepIsAnError(t *testing.T) {
	for _, tc := range []struct {
		to   graph.VertexID
		want string
	}{
		{to: 0, want: "vertex 0: message for superstep 2 while superstep 0's is pending"},
		{to: 1, want: "vertex 1: message for superstep 2 in superstep 0's lane"},
	} {
		s := newSyncWorkerOn(t, 2, lineGraph(5), partition.Assignment{0, 0, 0, 1, 1})
		s.deliver(&protocol.ExecuteQuery{Spec: query.Spec{ID: 3, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}})
		err := s.send(&protocol.VertexBatch{Q: 3, Step: 1, From: 1, Entries: []protocol.VertexMsg{{To: tc.to, Val: 5}}})
		if err == nil {
			err = s.send(&protocol.BarrierReady{Q: 3, Step: 0, BestGoal: query.NoResult})
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("message for superstep 2 to vertex %d: got %v, want %q", tc.to, err, tc.want)
		}
	}
}

// TestWireIDsAreRangeChecked: every vertex or worker id a message carries
// that the worker indexes with is checked first, so a bad one is an error,
// never a panic that kills the process (or, in-process, the engine).
func TestWireIDsAreRangeChecked(t *testing.T) {
	owners := func(last partition.WorkerID) []partition.WorkerID { return []partition.WorkerID{0, 0, 0, 1, last} }
	for _, tc := range []struct {
		name    string
		rejoin  bool
		barrier bool // inside a global barrier, where scopes move
		msg     protocol.Message
	}{
		{name: "ownership update of a vertex past the graph", barrier: true, msg: &protocol.GlobalStart{Epoch: 1, Vertices: []graph.VertexID{99}, Owners: []partition.WorkerID{1}}},
		{name: "ownership update to a worker past K", barrier: true, msg: &protocol.GlobalStart{Epoch: 1, Vertices: []graph.VertexID{1}, Owners: []partition.WorkerID{7}}},
		{name: "ownership update with owners missing", barrier: true, msg: &protocol.GlobalStart{Epoch: 1, Vertices: []graph.VertexID{1, 2}, Owners: []partition.WorkerID{1}}},
		{name: "scope data of a vertex past the graph", barrier: true, msg: &protocol.ScopeData{Epoch: 1, Q: 1, From: 1, Vertices: []protocol.MovedVertex{{V: 99}}}},
		{name: "recovery to a worker past K", msg: &protocol.PartitionGrant{Gen: 1, Owner: owners(7)}},
		{name: "grant to a worker past K", rejoin: true, msg: &protocol.PartitionGrant{Gen: 1, Rejoin: true, Owner: owners(7)}},
		{name: "delta batch owning a new vertex past K", msg: &protocol.DeltaBatch{Version: 1, Ops: []delta.Op{{Kind: delta.OpAddVertex}}, NewOwners: []partition.WorkerID{7}}},
		{name: "query from a vertex past the graph", msg: &protocol.ExecuteQuery{Spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 99, Target: graph.NilVertex}}},
		{name: "vertex batch from a worker past K", msg: &protocol.VertexBatch{Q: 1, From: 7, Entries: []protocol.VertexMsg{{To: 1, Val: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &syncWorker{t: t, conn: &recConn{}}
			w, err := New(Config{ID: 0, K: 2, Graph: lineGraph(5), Owner: owners(1), Rejoin: tc.rejoin}, s.conn)
			if err != nil {
				t.Fatal(err)
			}
			s.w = w
			if tc.barrier {
				s.deliver(&protocol.GlobalStop{Epoch: 1, Live: []partition.WorkerID{0}})
			}
			if err := s.send(tc.msg); err == nil {
				t.Fatalf("%T accepted", tc.msg)
			}
		})
	}
}

// refusingConn is a worker's endpoint after its controller exited: every
// send fails as a dial to a closed listener does.
type refusingConn struct{ in chan transport.Envelope }

func (c refusingConn) Send(protocol.NodeID, protocol.Message) error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}
func (c refusingConn) Inbox() <-chan transport.Envelope { return c.in }
func (c refusingConn) Close() error                     { return nil }

// TestReplyRacingShutdownIsNoFault: a Pong that the network refuses ends
// the run cleanly when the controller's Shutdown follows it, and is fatal
// when nothing does.
func TestReplyRacingShutdownIsNoFault(t *testing.T) {
	for _, shutdown := range []bool{true, false} {
		c := refusingConn{in: make(chan transport.Envelope, 2)}
		c.in <- transport.Envelope{Msg: &protocol.Ping{Seq: 1}}
		if shutdown {
			c.in <- transport.Envelope{Msg: &protocol.Shutdown{}}
		}
		close(c.in)
		w, err := New(Config{ID: 0, K: 1, Graph: lineGraph(5), Owner: make(partition.Assignment, 5)}, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); (err == nil) != shutdown {
			t.Errorf("Shutdown queued %v: Run = %v", shutdown, err)
		}
	}
}
