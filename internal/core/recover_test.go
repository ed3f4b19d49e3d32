package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// Worker failure recovery, driven end to end through the deterministic
// fault-injection seam (internal/faultpoint): a worker is killed at a
// named point — mid-superstep, mid-barrier, mid-delta-commit, during
// recovery itself — and every in-flight query must still complete with
// the result the single-process reference (Dijkstra) computes. No caller
// may ever observe worker_lost while at least one worker survives.

// recoverGraph is a bidirectional path: every SSSP pair has a unique
// distance, and hash partitioning spreads consecutive vertices across
// workers so queries always cross partitions (and therefore always have
// state on the worker being killed).
func recoverGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	return b.MustBuild()
}

// fastRecovery tunes an engine config for sub-second failure detection
// and recovery in tests.
func fastRecovery(cfg *Config) {
	cfg.CheckEvery = time.Millisecond
	cfg.CommitEvery = 5 * time.Millisecond
	cfg.MaxBatchOps = 1 << 20 // commit on the timer, not per op
	cfg.HeartbeatEvery = 5 * time.Millisecond
	cfg.HeartbeatTimeout = 30 * time.Millisecond
}

// queryPairs is the reference workload: point-to-point SSSP across the
// whole path, long enough to span many supersteps and all workers.
func queryPairs(n int) [][2]graph.VertexID {
	return [][2]graph.VertexID{
		{0, graph.VertexID(n - 1)},
		{graph.VertexID(n - 1), 0},
		{1, graph.VertexID(n - 2)},
		{graph.VertexID(n / 2), graph.VertexID(n - 1)},
		{0, graph.VertexID(n / 2)},
		{2, graph.VertexID(n - 3)},
	}
}

// runRecoveryWorkload schedules the reference queries concurrently,
// waits for all of them, and asserts every result matches Dijkstra on g —
// whatever faults fire meanwhile. Queries are scheduled in two waves so
// some are in flight before the fault and some arrive during recovery.
func runRecoveryWorkload(t *testing.T, eng *Engine, g *graph.Graph, firstID query.ID) {
	t.Helper()
	pairs := queryPairs(g.NumVertices())
	type res struct {
		pair [2]graph.VertexID
		r    controller.Result
	}
	out := make(chan res, 2*len(pairs))
	var wg sync.WaitGroup
	launch := func(idBase query.ID) {
		for i, p := range pairs {
			h, err := eng.Schedule(query.Spec{
				ID: idBase + query.ID(i), Kind: query.KindSSSP, Source: p[0], Target: p[1],
			})
			if err != nil {
				t.Errorf("schedule %v: %v", p, err)
				continue
			}
			wg.Add(1)
			go func(p [2]graph.VertexID, h *Handle) {
				defer wg.Done()
				out <- res{pair: p, r: h.Wait()}
			}(p, h)
		}
	}
	launch(firstID)
	// Second wave lands while the first is executing (and typically while
	// the fault or the recovery is in progress).
	time.Sleep(10 * time.Millisecond)
	launch(firstID + 100)
	wg.Wait()
	close(out)
	got := 0
	for r := range out {
		got++
		if r.r.Reason == protocol.FinishWorkerLost {
			t.Fatalf("query %v finished worker_lost — recovery must hide worker death", r.pair)
		}
		if r.r.Reason != protocol.FinishConverged && r.r.Reason != protocol.FinishEarly {
			t.Fatalf("query %v finished %v", r.pair, r.r.Reason)
		}
		if want := graph.DijkstraTo(g, r.pair[0], r.pair[1]); r.r.Value != want {
			t.Fatalf("query %v = %g, want %g (single-worker reference)", r.pair, r.r.Value, want)
		}
	}
	if got != 2*len(pairs) {
		t.Fatalf("collected %d results, want %d", got, 2*len(pairs))
	}
}

// awaitRecovered polls until the engine reports a completed recovery
// episode and a settled health state.
func awaitRecovered(t *testing.T, eng *Engine, episodes int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h := eng.Health()
		if eng.RecoveryStats().Recoveries >= episodes && !h.Recovering && !h.Degraded {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("recovery did not settle: health=%+v stats=%+v", eng.Health(), eng.RecoveryStats())
}

// distanceNeutralOps returns a mutation batch that cannot change any
// existing pairwise distance: a fresh vertex plus an over-weight edge to
// it (added edges can only shorten paths; one this heavy never does).
func distanceNeutralOps() []delta.Op {
	return []delta.Op{
		{Kind: delta.OpAddVertex},
		{Kind: delta.OpAddEdge, From: 0, To: 0, Weight: 1 << 14},
	}
}

// TestRecoveryFaultMatrix kills worker 1 at each named fault point and
// asserts the full acceptance property: all queries complete correctly,
// a commit the dying worker never applied is acked to its caller
// regardless, the engine returns to healthy with the partition handed to
// survivors, and every survivor's replica is at the committed version.
// The delivery orders the in-process
// network never shows (a controller message overtaking a worker's batch or
// marker) are TestRecoverySchedules', in internal/controller.
func TestRecoveryFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		point string
		// mutate commits a batch so the delta points fire on its broadcast.
		mutate bool
		// adapt turns Q-cut on (eagerAdapt): its repartition barrier is what
		// walks worker 1 into the GlobalStop point.
		adapt bool
	}{
		{name: "mid-superstep", point: faultpoint.WorkerSuperstep},
		{name: "mid-barrier", point: faultpoint.WorkerBarrierStop, adapt: true},
		{name: "mid-delta-commit-before-apply", point: faultpoint.WorkerDeltaApply, mutate: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultpoint.Reset()
			g := recoverGraph(48)
			cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}}
			fastRecovery(&cfg)
			if tc.adapt {
				eagerAdapt(&cfg)
			}
			if tc.mutate {
				// Recovery cannot begin before worker 1 was silent this long:
				// wide enough that the ack observer below cannot lose the race
				// against it to scheduling noise.
				cfg.HeartbeatTimeout = 250 * time.Millisecond
			}
			eng, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			fired, disarm := faultpoint.KillOnce(tc.point, 1)
			defer disarm()

			// ack is the commit's result plus the recovery episodes completed
			// when it arrived.
			type ack struct {
				res        controller.MutationResult
				recoveries int64
			}
			acked := make(chan ack, 1)
			if tc.mutate {
				// The batch's broadcast is what walks worker 1 into the armed
				// point; stage it before the queries so it seals promptly.
				mch, err := eng.Mutate(distanceNeutralOps())
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					res := <-mch
					acked <- ack{res, eng.RecoveryStats().Recoveries}
				}()
			}

			// The repartition barrier needs a window of finished queries
			// before Q-cut plans moves; keep the workload coming until its
			// STOP reached worker 1.
			for id := query.ID(1); ; id += 1000 {
				runRecoveryWorkload(t, eng, g, id)
				select {
				case <-fired:
				default:
					if tc.adapt && id < 50000 {
						continue
					}
					t.Fatal("fault point never fired — the scenario did not exercise the kill")
				}
				break
			}
			if tc.mutate {
				select {
				case a := <-acked:
					// The batch was durable and applied on the controller
					// before its broadcast killed worker 1: the caller is
					// acked at once, not after the recovery episode.
					if a.res.Err != nil {
						t.Fatalf("commit across worker death: %v", a.res.Err)
					}
					if a.res.Version != 1 {
						t.Fatalf("commit landed at version %d, want 1", a.res.Version)
					}
					if a.recoveries != 0 {
						t.Fatalf("commit acked only after %d recovery episode(s)", a.recoveries)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("mutation caught in worker death never resolved")
				}
			}

			awaitRecovered(t, eng, 1)
			h := eng.Health()
			if len(h.DeadWorkers) != 1 || h.DeadWorkers[0] != 1 {
				t.Fatalf("health after handoff = %+v, want lost worker 1", h)
			}
			st := eng.RecoveryStats()
			if st.Handoffs < 1 {
				t.Fatalf("recovery stats %+v, want a handoff", st)
			}
			// Queries the episode restarted moved their pins to the recovered
			// version; none may be left behind on the version they started at.
			if m := eng.MVCCStats(); m.Pinned != 0 || m.Live != 1 || m.Latest != eng.GraphVersion() {
				t.Fatalf("mvcc after recovery = %+v, want nothing pinned and only version %d live", m, eng.GraphVersion())
			}

			// The engine keeps serving after the episode.
			if d := sssp(t, eng, 500, 0, 47); d != graph.DijkstraTo(g, 0, 47) {
				t.Fatalf("post-recovery distance %g", d)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("engine close: %v", err)
			}
			// Read once the event loops stopped: every survivor applied
			// every batch committed.
			for w, wk := range eng.Workers() {
				if v := wk.View().Version(); w != 1 && v != eng.GraphVersion() {
					t.Errorf("survivor %d at version %d, engine at %d", w, v, eng.GraphVersion())
				}
			}
		})
	}
}

// TestRecoveryRestartReachesAddedVertices kills a worker under a query and
// then commits vertices the graph did not have when the query was
// scheduled, on a shortcut to its target. The recovery restart re-pins the
// query to that version, so its answer, its version and its scope blocks
// are the new graph's, blocks past the last one of the graph it was
// scheduled on included.
func TestRecoveryRestartReachesAddedVertices(t *testing.T) {
	defer faultpoint.Reset()
	const n, added = 48, 8
	g := recoverGraph(n)
	cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}}
	fastRecovery(&cfg)
	// Recovery cannot begin before worker 1 was silent this long: the
	// commit below is acked well inside it.
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()
	h, err := eng.Schedule(query.Spec{ID: 1, Kind: query.KindSSSP, Source: 0, Target: n - 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("fault point never fired")
	}

	// The shortcut 0 → n → n+1 → … → n+added-1 → n-1 through the new
	// vertices, beside the path the query was scheduled on.
	b := graph.NewBuilder(n + added)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	var ops []delta.Op
	for range added {
		ops = append(ops, delta.Op{Kind: delta.OpAddVertex})
	}
	hops := []graph.VertexID{0}
	for v := n; v < n+added; v++ {
		hops = append(hops, graph.VertexID(v))
	}
	hops = append(hops, n-1)
	for i := 0; i+1 < len(hops); i++ {
		ops = append(ops, delta.Op{Kind: delta.OpAddEdge, From: hops[i], To: hops[i+1], Weight: 1})
		b.AddEdge(hops[i], hops[i+1], 1)
	}
	if res := mutate(t, eng, ops); res.Version != 1 {
		t.Fatalf("commit landed at version %d, want 1", res.Version)
	}
	if r := eng.RecoveryStats().Recoveries; r != 0 {
		t.Fatalf("the commit was acked after %d recovery episode(s): the restart may predate it", r)
	}

	res := h.Wait()
	if res.Reason != protocol.FinishConverged && res.Reason != protocol.FinishEarly {
		t.Fatalf("restarted query finished %v", res.Reason)
	}
	if want := graph.DijkstraTo(b.MustBuild(), 0, n-1); res.Value != want || res.Version != 1 {
		t.Fatalf("restarted query = %g at version %d, want %g at version 1", res.Value, res.Version, want)
	}
	for _, v := range hops[1 : len(hops)-1] {
		if !slices.Contains(res.Blocks, protocol.BlockOf(v)) {
			t.Fatalf("scope blocks %v miss new vertex %d's block %d", res.Blocks, v, protocol.BlockOf(v))
		}
	}
	awaitRecovered(t, eng, 1)
	if st := eng.RecoveryStats(); st.QueriesRestarted < 1 {
		t.Fatalf("recovery stats %+v, want the query restarted", st)
	}
}

// TestRecoveryDuringRecovery kills a second worker at the WorkerRecover
// point — it dies the moment the first episode's PartitionGrant reaches it
// — forcing a second recovery round inside the episode. The engine must
// converge on the single survivor with every query correct.
func TestRecoveryDuringRecovery(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(48)
	cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}}
	fastRecovery(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	fired1, disarm1 := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm1()
	fired2, disarm2 := faultpoint.KillOnce(faultpoint.WorkerRecover, 2)
	defer disarm2()

	runRecoveryWorkload(t, eng, g, 1)

	for _, fired := range []<-chan struct{}{fired1, fired2} {
		select {
		case <-fired:
		default:
			t.Fatal("a fault point never fired")
		}
	}
	awaitRecovered(t, eng, 1)
	h := eng.Health()
	if len(h.DeadWorkers) != 2 {
		t.Fatalf("health = %+v, want workers 1 and 2 lost", h)
	}
	if d := sssp(t, eng, 500, 0, 47); d != graph.DijkstraTo(g, 0, 47) {
		t.Fatalf("post-recovery distance %g", d)
	}
}

// TestTwoWorkersDieSameWindow kills two workers at (nearly) the same
// moment: both fall out of the same heartbeat window and the episode must
// hand both partitions to the survivors.
func TestTwoWorkersDieSameWindow(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(48)
	cfg := Config{Workers: 4, Graph: g, Partitioner: partition.Hash{}}
	fastRecovery(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	fired1, disarm1 := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm1()
	fired2, disarm2 := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 3)
	defer disarm2()

	runRecoveryWorkload(t, eng, g, 1)

	for _, fired := range []<-chan struct{}{fired1, fired2} {
		select {
		case <-fired:
		default:
			t.Fatal("a fault point never fired")
		}
	}
	awaitRecovered(t, eng, 1)
	h := eng.Health()
	if len(h.DeadWorkers) != 2 {
		t.Fatalf("health = %+v, want two lost workers", h)
	}
	if d := sssp(t, eng, 500, 0, 47); d != graph.DijkstraTo(g, 0, 47) {
		t.Fatalf("post-recovery distance %g", d)
	}
}

// TestRecoveryRespawn lets the engine relaunch the killed worker: the
// replacement rejoins via WorkerHello/PartitionGrant, rebuilds its view by
// replaying the committed delta log, and adopts its old partition in
// place — afterwards no worker is lost and the full set serves again.
func TestRecoveryRespawn(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(48)
	cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}, RespawnWorkers: true}
	fastRecovery(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Commit a batch before the kill so the replacement actually has log
	// to replay (the interesting rebuild path).
	mutate(t, eng, distanceNeutralOps())

	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()

	runRecoveryWorkload(t, eng, g, 1)
	select {
	case <-fired:
	default:
		t.Fatal("fault point never fired")
	}
	awaitRecovered(t, eng, 1)

	h := eng.Health()
	if len(h.DeadWorkers) != 0 {
		t.Fatalf("health after respawn = %+v, want full worker set", h)
	}
	st := eng.RecoveryStats()
	if st.Rejoins < 1 {
		t.Fatalf("recovery stats %+v, want a rejoin", st)
	}

	// The replacement's replica converged on the committed version and
	// serves further commits.
	mutate(t, eng, distanceNeutralOps())
	if d := sssp(t, eng, 600, 0, 47); d != graph.DijkstraTo(g, 0, 47) {
		t.Fatalf("post-respawn distance %g", d)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if v := eng.Workers()[1].View().Version(); v != eng.GraphVersion() {
		t.Fatalf("respawned worker at version %d, engine at %d", v, eng.GraphVersion())
	}
}

// TestSlowWorkerSurvivesRecovery arms a delay (not a kill) on worker 2:
// it answers heartbeats late but within the timeout while worker 1 dies.
// The flapping-but-alive worker must not be declared dead mid-recovery.
func TestSlowWorkerSurvivesRecovery(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(48)
	cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}}
	fastRecovery(&cfg)
	cfg.HeartbeatTimeout = 60 * time.Millisecond
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Worker 2 stalls 10ms per superstep — repeatedly missing probe
	// rounds, never the full timeout.
	disarmSlow := faultpoint.Arm(faultpoint.WorkerSuperstep, func(args ...int) bool {
		if len(args) > 0 && args[0] == 2 {
			time.Sleep(10 * time.Millisecond)
		}
		return false
	})
	defer disarmSlow()
	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()

	runRecoveryWorkload(t, eng, g, 1)
	select {
	case <-fired:
	default:
		t.Fatal("fault point never fired")
	}
	awaitRecovered(t, eng, 1)
	h := eng.Health()
	if len(h.DeadWorkers) != 1 || h.DeadWorkers[0] != 1 {
		t.Fatalf("health = %+v: the slow-but-alive worker 2 must survive", h)
	}
}

// TestShutdownRacesRecovery closes the engine while a recovery episode is
// (most likely) mid-flight. The only requirement is a clean, prompt
// shutdown: no deadlock, no spurious engine error, and every outstanding
// caller unblocked.
func TestShutdownRacesRecovery(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(48)
	cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}}
	fastRecovery(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}

	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()

	pairs := queryPairs(g.NumVertices())
	var wg sync.WaitGroup
	for i, p := range pairs {
		h, err := eng.Schedule(query.Spec{
			ID: query.ID(i + 1), Kind: query.KindSSSP, Source: p[0], Target: p[1],
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Wait() // must unblock, whatever the reason
		}()
	}
	<-fired
	// Land the Close in the detection/recovery window.
	time.Sleep(15 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- eng.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close during recovery: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("engine close deadlocked against recovery")
	}
	wg.Wait()
}
