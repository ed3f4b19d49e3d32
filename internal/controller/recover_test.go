package controller

import (
	"slices"
	"strings"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/obs/health"
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
	net := transport.NewChanNetwork(3)
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
	net := transport.NewChanNetwork(3)
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
	net := transport.NewChanNetwork(2)
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
	net := transport.NewChanNetwork(3)
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

// TestMembershipTransitions drives worker membership and the recovery
// episode through their transitions alone: no event loop, no network, no
// clock.
func TestMembershipTransitions(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	const every = 10 * time.Millisecond
	// fresh is the machine of k workers probed every 10ms with the given
	// timeout; respawn launches a replacement for every dead worker.
	fresh := func(k int, timeout time.Duration, respawn bool) *members {
		cfg := &Config{K: k, HeartbeatEvery: every, HeartbeatTimeout: timeout}
		if respawn {
			cfg.Respawn = func(partition.WorkerID) {}
		}
		m := newMembers(cfg)
		return &m
	}
	// ackAll acks the current generation from ws and says whether the
	// last ack completed the round.
	ackAll := func(t *testing.T, m *members, ws ...partition.WorkerID) (done bool) {
		t.Helper()
		for _, w := range ws {
			fresh, d := m.ack(w, m.gen)
			if !fresh {
				t.Fatalf("worker %d's ack of generation %d was not fresh", w, m.gen)
			}
			done = d
		}
		return done
	}
	ids := func(ws ...partition.WorkerID) []partition.WorkerID { return ws }
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"probe cadence, and the miss limit's floor of 2", func(t *testing.T) {
			m := fresh(2, every, false) // a timeout of one round still allows 2 misses
			if ping, lost := m.probe(t0); ping != nil || lost != nil {
				t.Fatalf("the first probe pinged %v and lost %v, want it to set the cadence only", ping, lost)
			}
			if ping, _ := m.probe(t0.Add(every / 2)); ping != nil {
				t.Fatalf("probed %v before the cadence allowed", ping)
			}
			for i := 1; i <= 3; i++ {
				ping, lost := m.probe(t0.Add(time.Duration(i) * every))
				wantPing, wantLost := ids(0, 1), ids()
				if i == 3 {
					wantPing, wantLost = ids(0), ids(1)
				}
				if !slices.Equal(ping, wantPing) || !slices.Equal(lost, wantLost) || m.pingSeq != int64(i) {
					t.Fatalf("round %d pinged %v and lost %v at seq %d, want %v and %v at %d",
						i, ping, lost, m.pingSeq, wantPing, wantLost, i)
				}
				m.pong(0, m.pingSeq)
			}
			if m.dead[1] {
				t.Fatal("probe declared the death itself; the caller does, through die")
			}
		}},
		{"a pong resets the miss count", func(t *testing.T) {
			m := fresh(2, 3*every, false)
			m.probe(t0)
			m.probe(t0.Add(every))
			m.probe(t0.Add(2 * every))
			if m.pong(1, m.pingSeq-1) || m.missed[1] != 0 {
				t.Fatalf("a pong to an old round: current, or %d misses left", m.missed[1])
			}
			if !m.pong(1, m.pingSeq) {
				t.Fatal("a pong to the current round is not current")
			}
			m.die(0, t0)
			if m.pong(0, m.pingSeq) || m.missed[0] != 2 {
				t.Fatalf("a dead worker's pong counted: %d misses", m.missed[0])
			}
		}},
		{"a second death mid-round bumps the generation and drops stale acks", func(t *testing.T) {
			m := fresh(3, every, false)
			m.die(1, t0)
			if m.gen != 1 || !m.expired(t0) {
				t.Fatalf("gen %d, expired %v: without a respawn the round plans at once", m.gen, m.expired(t0))
			}
			owner := partition.Assignment{0, 1, 2}
			m.plan(owner, []int64{1, 1, 1})
			if ackAll(t, m, 0) {
				t.Fatal("the round completed with worker 2's ack due")
			}
			m.die(2, t0.Add(time.Second))
			if m.gen != 2 || !m.window() {
				t.Fatalf("gen %d, window %v after the second death", m.gen, m.window())
			}
			if _, starts := m.plan(owner, []int64{1, 0, 2}); !slices.Equal(starts, ids(0)) {
				t.Fatalf("RecoverStart to %v, want the survivor 0", starts)
			}
			if fresh, _ := m.ack(0, 1); fresh {
				t.Fatal("an ack of the first round's generation counted in the second")
			}
			if !ackAll(t, m, 0) {
				t.Fatal("the survivor's ack did not complete the round")
			}
			if d, handoffs, _ := m.finish(t0.Add(3*time.Second), 0); d != 3*time.Second || handoffs != 2 {
				t.Fatalf("episode of %s with %d handoffs, want 3s from the first death and 2", d, handoffs)
			}
		}},
		{"a hello inside the window and a hello after it", func(t *testing.T) {
			m := fresh(3, every, true)
			m.die(1, t0)
			if m.expired(t0.Add(respawnWait / 2)) {
				t.Fatal("the hello window closed before its time with the hello due")
			}
			if admitted, opened := m.hello(1, t0.Add(respawnWait/2)); !admitted || opened {
				t.Fatalf("an in-window hello: admitted %v, opened %v, want it to join the round", admitted, opened)
			}
			if !m.expired(t0.Add(respawnWait / 2)) {
				t.Fatal("every awaited hello is in, and the window is still open")
			}
			counts := []int64{1, 1, 1}
			grants, starts := m.plan(partition.Assignment{0, 1, 2}, counts)
			if !slices.Equal(grants, ids(1)) || !slices.Equal(starts, ids(0, 2)) || m.dead[1] || counts[1] != 1 {
				t.Fatalf("grants %v, starts %v, counts %v: worker 1 must adopt its partition in place", grants, starts, counts)
			}
			ackAll(t, m, 0, 1, 2)
			m.finish(t0, 0)

			t1 := t0.Add(time.Minute)
			m.die(2, t1)
			if m.expired(t1.Add(respawnWait-time.Nanosecond)) || !m.expired(t1.Add(respawnWait)) {
				t.Fatal("the hello window did not close at respawnWait")
			}
			counts = []int64{1, 1, 1}
			m.plan(partition.Assignment{0, 1, 2}, counts)
			gen := m.gen
			if admitted, opened := m.hello(2, t1.Add(time.Second)); !admitted || !opened || m.gen != gen+1 {
				t.Fatalf("a late hello: admitted %v, opened %v, gen %d, want a round of its own", admitted, opened, m.gen)
			}
			if !m.expired(t1.Add(time.Second)) {
				t.Fatal("a late hello's round awaits a hello")
			}
			if grants, _ := m.plan(partition.Assignment{0, 0, 1}, counts); !slices.Equal(grants, ids(2)) || counts[2] != 0 {
				t.Fatalf("grants %v, counts %v: worker 2 must rejoin empty", grants, counts)
			}
		}},
		{"a hello stays in across a death that opens a new round", func(t *testing.T) {
			m := fresh(4, every, true)
			m.die(1, t0)
			m.die(2, t0)
			m.hello(1, t0)
			m.die(3, t0) // a new round, with 2 and 3 awaited
			m.hello(2, t0)
			m.hello(3, t0)
			if !m.expired(t0) {
				t.Fatal("every awaited hello is in, and the window is still open")
			}
			if grants, starts := m.plan(partition.Assignment{0, 1, 2, 3}, []int64{1, 1, 1, 1}); !slices.Equal(grants, ids(1, 2, 3)) || !slices.Equal(starts, ids(0)) {
				t.Fatalf("grants %v, starts %v: worker 1's hello must outlive the round it arrived in", grants, starts)
			}
		}},
		{"a hello from a live worker is ignored", func(t *testing.T) {
			m := fresh(2, every, true)
			if admitted, opened := m.hello(0, t0); admitted || opened || m.gen != 0 || m.window() {
				t.Fatalf("a live worker's hello: admitted %v, opened %v, gen %d", admitted, opened, m.gen)
			}
			m.die(1, t0)
			if admitted, _ := m.hello(0, t0); admitted || len(m.rejoin) != 0 {
				t.Fatal("a live worker's hello joined the hello window")
			}
		}},
		{"the last death is terminal", func(t *testing.T) {
			m := fresh(2, every, false)
			m.die(0, t0)
			if !m.die(1, t0) || !m.terminal || m.window() || !m.since.IsZero() {
				t.Fatalf("terminal %v, window %v: the last death must end the episode uncounted", m.terminal, m.window())
			}
			if m.die(1, t0) || m.stats != (RecoveryStats{}) {
				t.Fatalf("a repeated death counted, or totals %+v moved", m.stats)
			}
			if ping, _ := m.probe(t0.Add(time.Hour)); ping != nil {
				t.Fatalf("probed %v with no worker live", ping)
			}
			if admitted, _ := m.hello(0, t0); admitted {
				t.Fatal("a hello admitted after the end")
			}
		}},
		{"finish reports handoffs, rejoins and restarts", func(t *testing.T) {
			m := fresh(3, every, true)
			m.die(1, t0)
			m.die(2, t0)
			m.hello(2, t0)
			m.plan(partition.Assignment{0, 1, 2}, []int64{1, 1, 1})
			ackAll(t, m, 0, 2)
			d, handoffs, rejoins := m.finish(t0.Add(250*time.Millisecond), 3)
			if d != 250*time.Millisecond || handoffs != 1 || rejoins != 1 {
				t.Fatalf("episode of %s, %d handoffs, %d rejoins; want 250ms, 1, 1", d, handoffs, rejoins)
			}
			m.hello(1, t0.Add(time.Second))
			m.plan(partition.Assignment{0, 0, 2}, []int64{2, 0, 1})
			ackAll(t, m, 0, 1, 2)
			m.finish(t0.Add(1100*time.Millisecond), 2)
			want := RecoveryStats{Recoveries: 2, Handoffs: 1, Rejoins: 2, QueriesRestarted: 5, LastRecoveryMS: 100}
			if m.stats != want {
				t.Fatalf("totals %+v, want %+v", m.stats, want)
			}
			if fresh, _ := m.ack(0, m.gen); fresh || m.window() {
				t.Fatal("an ack after the episode closed counted")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestLeastLoadedPlacement: one rule places every vertex a membership
// change moves — a handed-off vertex, a new one, and a sealed one whose
// owner died — on the least-loaded live worker.
func TestLeastLoadedPlacement(t *testing.T) {
	// roundRobin is n vertices over k workers, and each worker's count,
	// with the given workers dead.
	roundRobin := func(n, k int, dead ...partition.WorkerID) (*members, partition.Assignment, []int64) {
		m := newMembers(&Config{K: k, HeartbeatEvery: -1})
		for _, w := range dead {
			m.die(w, time.Unix(0, 0))
		}
		owner := make(partition.Assignment, n)
		counts := make([]int64, k)
		for v := range owner {
			owner[v] = partition.WorkerID(v % k)
			counts[v%k]++
		}
		return &m, owner, counts
	}
	t.Run("handoff balances onto survivors", func(t *testing.T) {
		m, owner, counts := roundRobin(12, 3, 1)
		m.plan(owner, counts)
		if !slices.Equal(counts, []int64{6, 0, 6}) || slices.Contains(owner, 1) {
			t.Fatalf("counts %v, owner %v: worker 1's 4 vertices must split 2/2", counts, owner)
		}
		// A tie goes to the lowest id, so the two survivors alternate.
		if got := []partition.WorkerID{owner[1], owner[4], owner[7], owner[10]}; !slices.Equal(got, []partition.WorkerID{0, 2, 0, 2}) {
			t.Fatalf("worker 1's vertices went to %v, want [0 2 0 2]", got)
		}
	})
	t.Run("handoff is deterministic", func(t *testing.T) {
		m1, a1, c1 := roundRobin(20, 4, 0, 2)
		m2, a2, c2 := roundRobin(20, 4, 0, 2)
		m1.plan(a1, c1)
		m2.plan(a2, c2)
		if !slices.Equal(a1, a2) {
			t.Fatalf("two plans of one state differ: %v vs %v", a1, a2)
		}
	})
	t.Run("no survivors", func(t *testing.T) {
		if w := leastLoaded([]int64{2}, workers(0)); w != -1 {
			t.Fatalf("placed on worker %d with none live", w)
		}
	})
	t.Run("remap of sealed owners", func(t *testing.T) {
		var p commits
		p.sealed = []*sealedBatch{{batch: &protocol.DeltaBatch{NewOwners: []partition.WorkerID{1, 0, 1}}}}
		counts := []int64{5, 3, 4}
		p.remap(counts, workers(1))
		// The sealed vertices count only once their batch applies; both
		// remapped ones land on worker 2, which stays the least loaded on
		// the scratch counts (4→5 vs worker 0's 5→6).
		if got := p.sealed[0].batch.NewOwners; !slices.Equal(got, []partition.WorkerID{2, 0, 2}) {
			t.Fatalf("remapped owners %v, want [2 0 2]", got)
		}
		if !slices.Equal(counts, []int64{5, 3, 4}) {
			t.Fatalf("counts mutated by remap: %v", counts)
		}
	})
}

// TestRecoveryCountsRestartedQueries: an episode counts the queries
// resume re-ran from superstep 0, not one cancelled mid-round, which
// resume finishes instead — and the health event says the same number.
func TestRecoveryCountsRestartedQueries(t *testing.T) {
	mon := health.New(health.Config{}, nil)
	c := newLoopless(t, 2, func(cfg *Config) { cfg.Monitor = mon })
	for q := query.ID(1); q <= 2; q++ {
		c.onSchedule(scheduleReq{spec: query.Spec{ID: q, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}, ch: make(chan Result, 1)})
	}
	c.onWorkerDead(1)
	c.onCancel(1)
	ack := &protocol.PartitionAck{Gen: c.members.gen, W: 0, Version: c.GraphVersion()}
	if err := c.handle(transport.Envelope{From: protocol.WorkerNode(0), Msg: ack}); err != nil {
		t.Fatal(err)
	}
	if st := c.RecoveryStats(); st.Recoveries != 1 || st.Handoffs != 1 || st.QueriesRestarted != 1 {
		t.Fatalf("recovery stats %+v, want 1 episode, 1 handoff and 1 query restarted", st)
	}
	ev := mon.Events(health.EventFilter{Type: health.EventRecovery})
	if len(ev) != 1 || ev[0].Fields["queries_restarted"] != 1 || !strings.Contains(ev[0].Msg, "1 queries restarted") {
		t.Fatalf("recovery events %+v, want one that restarted 1 query", ev)
	}
}

// TestLateHelloInWindowRejoins: a replacement whose partition an earlier
// episode handed off says hello inside a later episode's hello window. It
// is granted back with the worker that episode awaits, and both count as
// rejoins.
func TestLateHelloInWindowRejoins(t *testing.T) {
	now := time.Unix(1_000, 0)
	c := newLoopless(t, 3, func(cfg *Config) {
		cfg.Respawn = func(partition.WorkerID) {}
		cfg.Clock = func() time.Time { return now }
	})
	ackAll := func(ws ...partition.WorkerID) {
		t.Helper()
		for _, w := range ws {
			ack := &protocol.PartitionAck{Gen: c.members.gen, W: w, Version: c.GraphVersion()}
			if err := c.handle(transport.Envelope{From: protocol.WorkerNode(w), Msg: ack}); err != nil {
				t.Fatal(err)
			}
		}
	}
	hello := func(w partition.WorkerID) {
		t.Helper()
		if err := c.handle(transport.Envelope{From: protocol.WorkerNode(w), Msg: &protocol.WorkerHello{W: w}}); err != nil {
			t.Fatal(err)
		}
	}

	c.onWorkerDead(1)
	now = now.Add(respawnWait)
	c.onTick() // the window expired: worker 1's partition goes to 0 and 2
	ackAll(0, 2)
	if st := c.RecoveryStats(); st.Recoveries != 1 || st.Handoffs != 1 {
		t.Fatalf("recovery stats %+v after the first episode, want 1 handoff", st)
	}

	c.onWorkerDead(2)
	hello(1)
	hello(2)
	if c.adapt.phase != phaseRecover {
		t.Fatalf("phase %d after the hellos, want the round planned and its acks due", c.adapt.phase)
	}
	ackAll(0, 1, 2)
	if h := c.Health(); c.adapt.phase != phaseRun || len(h.DeadWorkers) != 0 {
		t.Fatalf("phase %d, health %+v: want both workers granted back", c.adapt.phase, h)
	}
	if st := c.RecoveryStats(); st.Recoveries != 2 || st.Handoffs != 1 || st.Rejoins != 2 {
		t.Fatalf("recovery stats %+v, want 2 episodes, 1 handoff and 2 rejoins", st)
	}
}
