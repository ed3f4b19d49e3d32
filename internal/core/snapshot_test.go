package core

import (
	"path/filepath"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/snapshot"
)

// Checkpointing end to end: the committed-op log stays bounded under
// sustained mutation load, a killed worker rejoins from (checkpoint, tail)
// instead of (version 0, full history), crash-during-snapshot leaves
// recovery correct, and a full restart from a persisted checkpoint
// reproduces the same query answers.

// neutralOps returns n committed-but-distance-neutral ops (self loops far
// heavier than any path), so Dijkstra on the original graph stays the
// reference while the log grows arbitrarily.
func neutralOps(n int) []delta.Op {
	ops := make([]delta.Op, n)
	for i := range ops {
		ops[i] = delta.Op{Kind: delta.OpAddEdge, From: 0, To: 0, Weight: 1 << 14}
	}
	return ops
}

// TestCheckpointBoundsLogAndRejoin is the acceptance scenario: >=10k
// committed mutations under an ops-based snapshot policy keep the log
// bounded, and a killed+respawned worker rebuilds from the checkpoint with
// a replayed-op count equal to the retained tail — not the full history.
func TestCheckpointBoundsLogAndRejoin(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(48)
	cfg := Config{
		Workers: 3, Graph: g, Partitioner: partition.Hash{},
		RespawnWorkers:   true,
		SnapshotEveryOps: 4000,
	}
	fastRecovery(&cfg)
	cfg.MaxBatchOps = 200 // commit each streamed batch promptly
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// 12200 = 30.5 policy windows: the last checkpoint covers 12000 ops
	// and a 200-op tail stays in the log for the rejoin to replay.
	const total, batch = 12200, 200
	for sent := 0; sent < total; sent += batch {
		mutate(t, eng, neutralOps(batch))
	}

	// Cuts and truncations run off the event loop; under the pipelined
	// commit path every batch can land before the first cut completes, so
	// wait for the queued follow-up cut's truncation before judging the
	// bound. Bounded log: the retained tail is at most one policy window
	// plus the batch that crossed it, never the full history.
	var st snapshot.Stats
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = eng.SnapshotStats()
		if st.Snapshots >= 1 && st.DeltaLogOps <= 4000+batch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log not bounded: retains %d of %d ops (%+v)", st.DeltaLogOps, total, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.LastSnapshotVersion == 0 || st.LastSnapshotVersion > eng.GraphVersion() {
		t.Fatalf("checkpoint version %d out of range (head %d)", st.LastSnapshotVersion, eng.GraphVersion())
	}
	if got := st.TruncatedOps + int64(st.DeltaLogOps); got != total {
		t.Fatalf("truncated %d + retained %d != committed %d", st.TruncatedOps, st.DeltaLogOps, total)
	}
	if st.DeltaLogOps == 0 {
		// A follow-up cut that pinned the head covered the whole history;
		// commit one more batch (below the policy window) so the rejoin
		// below still has a tail to replay.
		mutate(t, eng, neutralOps(batch))
		st = eng.SnapshotStats()
	}
	retained := st.DeltaLogOps

	// Kill a worker mid-query-load; the respawn must rebuild from the
	// checkpoint, with every query still matching Dijkstra.
	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()
	runRecoveryWorkload(t, eng, g, 1)
	select {
	case <-fired:
	default:
		t.Fatal("fault point never fired")
	}
	awaitRecovered(t, eng, 1)
	if st := eng.RecoveryStats(); st.Rejoins < 1 {
		t.Fatalf("recovery stats %+v, want a rejoin", st)
	}

	replayed := eng.Workers()[1].ReplayedOps()
	if replayed <= 0 {
		t.Fatal("rejoined worker reports no replayed ops")
	}
	if replayed > int64(retained) {
		t.Fatalf("rejoin replayed %d ops, want <= the retained tail %d", replayed, retained)
	}
	if replayed >= total {
		t.Fatalf("rejoin replayed the full history (%d ops) despite checkpointing", replayed)
	}
	t.Logf("rejoin replayed %d of %d committed ops (checkpoint at version %d)",
		replayed, total, st.LastSnapshotVersion)

	if d := sssp(t, eng, 900, 0, 47); d != graph.DijkstraTo(g, 0, 47) {
		t.Fatalf("post-rejoin distance %g", d)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if v := eng.Workers()[1].View().Version(); v != eng.GraphVersion() {
		t.Fatalf("rejoined worker at version %d, engine at %d", v, eng.GraphVersion())
	}
}

// TestForceSnapshotAndAbortedCut covers the manual trigger and the
// crash-mid-cut fault: an aborted cut leaves the log untouched (recovery
// replays the longer tail), and the next cut truncates normally.
func TestForceSnapshotAndAbortedCut(t *testing.T) {
	defer faultpoint.Reset()
	g := pathGraph(10)
	cfg := Config{Workers: 2, Graph: g, Partitioner: partition.Hash{}}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	mutate(t, eng, neutralOps(8))
	res, err := eng.ForceSnapshot()
	if err != nil || !res.Cut || res.Version != eng.GraphVersion() || res.TruncatedOps != 8 {
		t.Fatalf("first cut = %+v, %v", res, err)
	}
	// Same version again: a no-op, not a duplicate snapshot.
	res, err = eng.ForceSnapshot()
	if err != nil || res.Cut {
		t.Fatalf("repeat cut = %+v, %v", res, err)
	}

	mutate(t, eng, neutralOps(8))
	disarm := faultpoint.Arm(faultpoint.SnapshotCut, func(...int) bool { return true })
	res, err = eng.ForceSnapshot()
	disarm()
	if err != nil || res.Cut {
		t.Fatalf("aborted cut = %+v, %v", res, err)
	}
	if st := eng.SnapshotStats(); st.Snapshots != 1 || st.DeltaLogOps != 8 {
		t.Fatalf("aborted cut changed state: %+v", st)
	}

	res, err = eng.ForceSnapshot()
	if err != nil || !res.Cut || res.TruncatedOps != 8 {
		t.Fatalf("cut after abort = %+v, %v", res, err)
	}
	if st := eng.SnapshotStats(); st.Snapshots != 2 || st.DeltaLogOps != 0 {
		t.Fatalf("stats after recovery cut: %+v", st)
	}
}

// TestCheckpointPersistFailureKeepsReplayable is the crash-mid-persist
// fault: the truncation floor must not advance past the durable
// checkpoint, so a rejoining worker still replays to the correct version
// from what actually exists.
func TestCheckpointPersistFailureKeepsReplayable(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(48)
	cfg := Config{
		Workers: 3, Graph: g, Partitioner: partition.Hash{},
		RespawnWorkers: true,
		SnapshotDir:    t.TempDir(),
	}
	fastRecovery(&cfg)
	cfg.MaxBatchOps = 100
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	mutate(t, eng, neutralOps(100))
	disarmPersist := faultpoint.Arm(faultpoint.SnapshotPersist, func(...int) bool { return true })
	res, err := eng.ForceSnapshot()
	disarmPersist()
	if err != nil || !res.Cut || res.Persisted {
		t.Fatalf("cut with failing persist = %+v, %v", res, err)
	}
	if res.TruncatedOps != 0 {
		t.Fatalf("log truncated %d ops past an unpersisted snapshot", res.TruncatedOps)
	}
	st := eng.SnapshotStats()
	if st.PersistFailures != 1 || st.DeltaLogOps != 100 {
		t.Fatalf("stats after persist failure: %+v", st)
	}

	// A worker killed now must still rebuild: the grant replays the full
	// retained log over version 0 — longer, but correct.
	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()
	runRecoveryWorkload(t, eng, g, 1)
	select {
	case <-fired:
	default:
		t.Fatal("fault point never fired")
	}
	awaitRecovered(t, eng, 1)
	if replayed := eng.Workers()[1].ReplayedOps(); replayed != 100 {
		t.Fatalf("rejoin replayed %d ops, want the full retained log (100)", replayed)
	}
	if d := sssp(t, eng, 900, 0, 47); d != graph.DijkstraTo(g, 0, 47) {
		t.Fatalf("post-rejoin distance %g", d)
	}

	// The next durable cut truncates across the gap.
	mutate(t, eng, neutralOps(100))
	res, err = eng.ForceSnapshot()
	if err != nil || !res.Cut || !res.Persisted || res.TruncatedOps != 200 {
		t.Fatalf("durable cut after failure = %+v, %v", res, err)
	}
}

// TestSnapshotDirIsCreated: an engine whose SnapshotDir does not exist yet
// creates it, so its first cut is durable and the log can be truncated.
func TestSnapshotDirIsCreated(t *testing.T) {
	cfg := Config{
		Workers: 2, Graph: pathGraph(10), Partitioner: partition.Hash{},
		SnapshotDir: filepath.Join(t.TempDir(), "snaps"),
	}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mutate(t, eng, neutralOps(4))
	if res, err := eng.ForceSnapshot(); err != nil || !res.Cut || !res.Persisted || res.TruncatedOps != 4 {
		t.Fatalf("cut into a new SnapshotDir = %+v, %v; want a durable cut", res, err)
	}
}

// TestRestartFromDiskCheckpoint is the qgraphd -snapshot-dir property at
// library level: a second engine built from the persisted checkpoint
// answers queries identically and continues the version numbering.
func TestRestartFromDiskCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := pathGraph(10)
	cfg := Config{Workers: 2, Graph: g, Partitioner: partition.Hash{}, SnapshotDir: dir}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A mutation that changes answers: a shortcut 0 -> 9.
	mutate(t, eng, []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 9, Weight: 1.5}})
	before := sssp(t, eng, 1, 0, 9)
	if before != 1.5 {
		t.Fatalf("pre-restart distance %g, want 1.5", before)
	}
	res, err := eng.ForceSnapshot()
	if err != nil || !res.Cut || !res.Persisted {
		t.Fatalf("checkpoint = %+v, %v", res, err)
	}
	version := eng.GraphVersion()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// A second engine from the seed graph over the same directory restores
	// the checkpoint on its own.
	cfg2 := Config{Workers: 2, Graph: g, Partitioner: partition.Hash{}, SnapshotDir: dir}
	fastCommit(&cfg2)
	eng2, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if v := eng2.GraphVersion(); v != version {
		t.Fatalf("restarted at version %d, want %d", v, version)
	}
	if after := sssp(t, eng2, 1, 0, 9); after != before {
		t.Fatalf("post-restart distance %g, want %g", after, before)
	}
	// The version chain continues where the checkpoint left off.
	if res := mutate(t, eng2, neutralOps(1)); res.Version != version+1 {
		t.Fatalf("post-restart commit landed at version %d, want %d", res.Version, version+1)
	}
}

// TestCloseWaitsForTheCutter: Close returns only once the background
// cutter finished writing into SnapshotDir, so a restart over the same
// directory, or its removal, cannot race the cut's rename and pruning.
func TestCloseWaitsForTheCutter(t *testing.T) {
	defer faultpoint.Reset()
	cfg := Config{Workers: 2, Graph: pathGraph(10), Partitioner: partition.Hash{}, SnapshotDir: t.TempDir()}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, eng, neutralOps(4))

	// Hold the cutter inside the durable write.
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	disarm := faultpoint.Arm(faultpoint.SnapshotPersist, func(...int) bool {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
		return false
	})
	defer disarm()
	stopped := make(chan error, 1)
	go func() {
		_, err := eng.ForceSnapshot() // answered "stopped" once Close stops the controller
		stopped <- err
	}()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("cutter never reached the durable write")
	}
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	if err := <-stopped; err == nil {
		t.Fatal("ForceSnapshot answered while its cut was held")
	}
	// The controller has stopped. Nothing marks a Close that returns too
	// early, so give it the time it needs to.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the cutter was still writing", err)
	case <-time.After(300 * time.Millisecond):
	}
	close(block)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned after the cutter finished")
	}
}
