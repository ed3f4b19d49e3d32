package controller

import (
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
	"qgraph/internal/worker"
)

// TestWorkerDeathRecovery runs a real worker 0 beside a silent worker 1:
// the controller must detect the dead peer via missed heartbeats, hand its
// partition to the survivor, and complete the wedged query — the caller
// sees a converged result, never worker_lost. Afterwards the engine is
// healthy again (the lost worker stays listed) and both queries and
// mutations keep working on the shrunken live set.
func TestWorkerDeathRecovery(t *testing.T) {
	g := lineGraph(8)
	net := transport.NewChanNetwork(3, transport.Latency{})
	defer net.Close()
	owner := make(partition.Assignment, g.NumVertices())
	for v := range owner {
		owner[v] = partition.WorkerID(v % 2)
	}
	ctrl, err := New(Config{
		K: 2, Graph: g, Owner: owner,
		CheckEvery:       2 * time.Millisecond,
		CommitEvery:      time.Millisecond,
		MaxBatchOps:      1,
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 40 * time.Millisecond,
	}, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Run()
	defer ctrl.Stop()

	// Worker 0 is real and keeps answering pings; worker 1 never runs.
	w0, err := worker.New(worker.Config{ID: 0, K: 2, Graph: g, Owner: owner},
		net.Conn(protocol.WorkerNode(0)))
	if err != nil {
		t.Fatal(err)
	}
	go w0.Run()

	// A BFS flood from vertex 0 crosses into worker 1's partition and
	// wedges there: recovery must re-execute it on the survivor.
	ch, err := ctrl.Schedule(query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch:
		if res.Reason != protocol.FinishConverged {
			t.Fatalf("result reason %v, want converged after recovery", res.Reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query not recovered")
	}

	h := ctrl.Health()
	if h.Degraded || h.Recovering {
		t.Fatalf("health = %+v, want recovered (not degraded)", h)
	}
	if len(h.DeadWorkers) != 1 || h.DeadWorkers[0] != 1 {
		t.Fatalf("health = %+v, want lost worker 1 listed", h)
	}
	if st := ctrl.RecoveryStats(); st.Recoveries < 1 || st.Handoffs < 1 {
		t.Fatalf("recovery stats %+v, want at least one handoff episode", st)
	}

	// New queries run on the survivor.
	ch2, err := ctrl.Schedule(query.Spec{ID: 2, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch2:
		if res.Reason != protocol.FinishConverged {
			t.Fatalf("post-recovery schedule reason %v, want converged", res.Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-recovery schedule not answered")
	}

	// Mutations commit against the shrunken live set.
	mch, err := ctrl.Mutate([]delta.Op{{Kind: delta.OpAddVertex}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-mch:
		if res.Err != nil {
			t.Fatalf("post-recovery mutation failed: %v", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-recovery mutation not answered")
	}
}

// TestCommitAckedWithSilentWorker: a commit is acknowledged once it is
// durable and applied on the controller — it never waits for a worker, so
// a replica that is silent (here: never started) delays neither the ack
// nor the version bump. Once liveness detection hands the silent worker's
// partition to the survivor, queries are served with the mutation in.
func TestCommitAckedWithSilentWorker(t *testing.T) {
	g := lineGraph(8)
	net := transport.NewChanNetwork(3, transport.Latency{})
	defer net.Close()
	owner := make(partition.Assignment, g.NumVertices())
	for v := range owner {
		owner[v] = partition.WorkerID(v % 2)
	}
	ctrl, err := New(Config{
		K: 2, Graph: g, Owner: owner,
		CheckEvery:       2 * time.Millisecond,
		CommitEvery:      time.Millisecond,
		MaxBatchOps:      1,
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 40 * time.Millisecond,
	}, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Run()
	defer ctrl.Stop()
	w0, err := worker.New(worker.Config{ID: 0, K: 2, Graph: g, Owner: owner},
		net.Conn(protocol.WorkerNode(0)))
	if err != nil {
		t.Fatal(err)
	}
	go w0.Run()
	// Worker 1 never runs: its DeltaBatch is never applied or acked.

	mch, err := ctrl.Mutate([]delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 7, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-mch:
		if res.Err != nil {
			t.Fatalf("commit with a silent worker: %v", res.Err)
		}
		if res.Version != 1 || res.Applied != 1 {
			t.Fatalf("commit = %+v, want version 1 applied 1", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit waited on the silent worker")
	}
	if v := ctrl.GraphVersion(); v != 1 {
		t.Fatalf("graph version %d after the commit, want 1", v)
	}

	// The survivor serves the mutation once worker 1's partition was
	// handed to it.
	ch, err := ctrl.Schedule(query.Spec{ID: 1, Kind: query.KindSSSP, Source: 0, Target: 7})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch:
		if res.Reason != protocol.FinishConverged && res.Reason != protocol.FinishEarly {
			t.Fatalf("post-commit query finished %v", res.Reason)
		}
		if res.Value != 1 {
			t.Fatalf("post-commit distance %g, want 1 (shortcut edge)", res.Value)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-commit query hung")
	}
}

// TestAllWorkersDeadIsTerminal: losing every worker is the one
// unrecoverable state — queries and mutations fail fast with worker_lost
// and health reports degraded.
func TestAllWorkersDeadIsTerminal(t *testing.T) {
	g := lineGraph(8)
	net := transport.NewChanNetwork(2, transport.Latency{})
	defer net.Close()
	owner := make(partition.Assignment, g.NumVertices())
	ctrl, err := New(Config{
		K: 1, Graph: g, Owner: owner,
		CheckEvery:       2 * time.Millisecond,
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 40 * time.Millisecond,
	}, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Run()
	defer ctrl.Stop()
	// The only worker never runs.

	ch, err := ctrl.Schedule(query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch:
		if res.Reason != protocol.FinishWorkerLost {
			t.Fatalf("result reason %v, want worker_lost", res.Reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("terminal death not detected")
	}
	h := ctrl.Health()
	if !h.Degraded || len(h.DeadWorkers) != 1 {
		t.Fatalf("health = %+v, want terminal degraded", h)
	}
	mch, err := ctrl.Mutate([]delta.Op{{Kind: delta.OpAddVertex}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-mch:
		if res.Err == nil {
			t.Fatal("mutation on terminal controller succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mutation on terminal controller not answered")
	}
}

// TestHealthyEngineStaysHealthy: with live workers answering heartbeats,
// aggressive probe settings must not produce false positives.
func TestHealthyEngineStaysHealthy(t *testing.T) {
	g := lineGraph(8)
	net := transport.NewChanNetwork(3, transport.Latency{})
	defer net.Close()
	owner := make(partition.Assignment, g.NumVertices())
	for v := range owner {
		owner[v] = partition.WorkerID(v % 2)
	}
	ctrl, err := New(Config{
		K: 2, Graph: g, Owner: owner,
		CheckEvery:       time.Millisecond,
		HeartbeatEvery:   5 * time.Millisecond,
		HeartbeatTimeout: 20 * time.Millisecond,
	}, net.Conn(protocol.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Run()
	defer ctrl.Stop()
	for wid := partition.WorkerID(0); wid < 2; wid++ {
		wk, err := worker.New(worker.Config{ID: wid, K: 2, Graph: g, Owner: owner},
			net.Conn(protocol.WorkerNode(wid)))
		if err != nil {
			t.Fatal(err)
		}
		go wk.Run()
	}
	// Let many probe rounds elapse while running a query.
	ch, err := ctrl.Schedule(query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Reason != protocol.FinishConverged {
		t.Fatalf("query reason %v, want converged", res.Reason)
	}
	time.Sleep(100 * time.Millisecond)
	if h := ctrl.Health(); h.Degraded || h.Recovering || len(h.DeadWorkers) > 0 {
		t.Fatalf("healthy workers declared dead: %+v", h)
	}
}
