package controller

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
)

// TestSealedFIFOBound drives the sealed FIFO to maxSealedInFlight: ops
// staged at the cap wait in the staged batch, the WAL completion channel keeps
// room for every batch in flight so no seal blocks the event loop, and the
// first completion seals everything that waited as one batch.
func TestSealedFIFOBound(t *testing.T) {
	c := newLoopless(t, 2, func(cfg *Config) { cfg.MaxBatchOps = 1 })
	if cap(c.walAckCh) != 2*maxSealedInFlight {
		t.Fatalf("completion channel capacity %d, want %d", cap(c.walAckCh), 2*maxSealedInFlight)
	}
	var first chan MutationResult
	stage := func() {
		ch := make(chan MutationResult, 1)
		if first == nil {
			first = ch
		}
		c.onMutate(mutateReq{ops: []delta.Op{{Kind: delta.OpAddVertex}}, ch: ch})
	}
	for i := 0; i < maxSealedInFlight; i++ {
		stage()
	}
	if len(c.commits.sealed) != maxSealedInFlight || len(c.commits.ops) != 0 {
		t.Fatalf("%d sealed, %d staged; want every op sealed up to the cap", len(c.commits.sealed), len(c.commits.ops))
	}
	const held = 3
	for i := 0; i < held; i++ {
		stage()
	}
	if len(c.commits.sealed) != maxSealedInFlight || len(c.commits.ops) != held {
		t.Fatalf("at the cap: %d sealed, %d staged; want %d, %d", len(c.commits.sealed), len(c.commits.ops), maxSealedInFlight, held)
	}
	if len(c.walAckCh) != maxSealedInFlight {
		t.Fatalf("%d completions queued, want one per sealed batch", len(c.walAckCh))
	}
	if err := c.onWalAck(<-c.walAckCh); err != nil {
		t.Fatal(err)
	}
	if res := <-first; res.Err != nil || res.Version != 1 {
		t.Fatalf("first commit %+v, want version 1", res)
	}
	last := c.commits.sealed[len(c.commits.sealed)-1].batch
	if len(c.commits.sealed) != maxSealedInFlight || len(c.commits.ops) != 0 || len(last.Ops) != held {
		t.Fatalf("after one completion: %d sealed, %d staged, last batch of %d ops; want %d, 0, %d",
			len(c.commits.sealed), len(c.commits.ops), len(last.Ops), maxSealedInFlight, held)
	}
	if len(c.walAckCh) != maxSealedInFlight || len(c.walAckCh) == cap(c.walAckCh) {
		t.Fatalf("%d of %d completions queued, want %d", len(c.walAckCh), cap(c.walAckCh), maxSealedInFlight)
	}
}

// TestCommitTransitions drives the commit pipeline through its
// transitions alone: no event loop, no network, no clock.
func TestCommitTransitions(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	const committed = 8 // vertices in the committed view
	addV := delta.Op{Kind: delta.OpAddVertex}
	edge := func(from, to graph.VertexID) delta.Op {
		return delta.Op{Kind: delta.OpAddEdge, From: from, To: to, Weight: 1}
	}
	// stage stages ops for a fresh caller at now and fails on a rejection.
	stage := func(t *testing.T, p *commits, now time.Time, ops ...delta.Op) {
		t.Helper()
		if err := p.stage(ops, make(chan MutationResult, 1), committed, now); err != nil {
			t.Fatal(err)
		}
	}
	// seal seals what is staged at now on two workers, worker 0 holding
	// every committed vertex.
	seal := func(p *commits, now time.Time) *sealedBatch {
		return p.seal([]int64{committed, 0}, nil, now)
	}
	// commitOne stages, seals, acks and retires one batch of n ops.
	commitOne := func(t *testing.T, p *commits, n int) {
		t.Helper()
		stage(t, p, t0, slices.Repeat([]delta.Op{edge(0, 1)}, n)...)
		sb := seal(p, t0)
		if err := p.durable(sb.batch.Version); err != nil {
			t.Fatal(err)
		}
		p.applied(make([]delta.OpStatus, n), 10*int64(n))
	}
	// ask requests a cut of version v at now for ch, as a ForceSnapshot step
	// does: it says whether a cut started, or ch's answer is due now.
	ask := func(p *commits, ch chan snapshot.Result, v uint64, now time.Time) (start, current bool) {
		p.request(ch)
		start, answer := p.pinNext(v, now)
		return start, slices.Contains(answer, ch)
	}
	cases := []struct {
		name string
		run  func(t *testing.T, p *commits)
	}{
		{"range validation counts sealed NewOwners", func(t *testing.T, p *commits) {
			stage(t, p, t0, addV)
			if sb := seal(p, t0); !slices.Equal(sb.batch.NewOwners, []partition.WorkerID{1}) {
				t.Fatalf("new vertex placed on %v, want the least-loaded worker 1", sb.batch.NewOwners)
			}
			stage(t, p, t0, addV, edge(committed, committed+1))
			if err := p.stage([]delta.Op{edge(0, committed+2)}, nil, committed, t0); err == nil {
				t.Fatal("an edge to a vertex no staged or sealed op adds was staged")
			}
			if len(p.ops) != 2 || p.newV != 1 {
				t.Fatalf("%d ops staged adding %d vertices, want 2 adding 1", len(p.ops), p.newV)
			}
		}},
		{"a seal at MaxBatchOps", func(t *testing.T, p *commits) {
			stage(t, p, t0, edge(0, 1), edge(1, 2))
			if p.due(t0, false) {
				t.Fatal("due below MaxBatchOps and CommitEvery")
			}
			stage(t, p, t0, edge(2, 3))
			if !p.due(t0, false) {
				t.Fatal("not due at MaxBatchOps")
			}
		}},
		{"a seal at CommitEvery", func(t *testing.T, p *commits) {
			stage(t, p, t0, edge(0, 1))
			stage(t, p, t0.Add(p.commitEvery/2), edge(1, 2))
			if p.due(t0.Add(p.commitEvery-1), false) {
				t.Fatal("due before the first op's CommitEvery")
			}
			if !p.due(t0.Add(p.commitEvery), false) {
				t.Fatal("not due at the first op's CommitEvery")
			}
			sb := seal(p, t0.Add(p.commitEvery))
			if sb.batch.Version != 1 || len(sb.batch.Ops) != 2 || len(sb.muts) != 2 || p.due(t0.Add(time.Hour), false) {
				t.Fatalf("sealed version %d of %d ops for %d callers; want version 1, 2 ops, 2 callers, nothing left",
					sb.batch.Version, len(sb.batch.Ops), len(sb.muts))
			}
		}},
		{"no seal at the cap", func(t *testing.T, p *commits) {
			for range maxSealedInFlight {
				stage(t, p, t0, edge(0, 1))
				seal(p, t0)
			}
			stage(t, p, t0, slices.Repeat([]delta.Op{edge(0, 1)}, p.maxBatchOps)...)
			if p.due(t0.Add(time.Hour), false) {
				t.Fatal("due with the sealed FIFO at its cap")
			}
		}},
		{"no seal mid-recovery", func(t *testing.T, p *commits) {
			stage(t, p, t0, slices.Repeat([]delta.Op{edge(0, 1)}, p.maxBatchOps)...)
			if p.due(t0.Add(time.Hour), true) {
				t.Fatal("due while a recovery round resolves the live set")
			}
		}},
		{"an ack for any version but the first non-durable batch is an error", func(t *testing.T, p *commits) {
			for range 2 {
				stage(t, p, t0, edge(0, 1))
				seal(p, t0)
			}
			for _, v := range []uint64{0, 2, 3} {
				if err := p.durable(v); err == nil {
					t.Fatalf("ack for version %d with version 1 awaiting one was accepted", v)
				}
			}
			if p.ready(false) != nil {
				t.Fatal("a batch with no ack is ready")
			}
			if err := p.durable(1); err != nil {
				t.Fatal(err)
			}
			if err := p.durable(1); err == nil {
				t.Fatal("a second ack for version 1 was accepted")
			}
			if p.ready(true) != nil {
				t.Fatal("a batch is ready while a recovery round holds the version")
			}
			if sb := p.ready(false); sb == nil || sb.batch.Version != 1 {
				t.Fatalf("ready %v, want version 1", sb)
			}
		}},
		{"applied splits the statuses per caller", func(t *testing.T, p *commits) {
			stage(t, p, t0, edge(0, 1), edge(1, 2))
			stage(t, p, t0, edge(2, 3))
			seal(p, t0)
			if err := p.durable(1); err != nil {
				t.Fatal(err)
			}
			res := p.applied([]delta.OpStatus{delta.OpApplied, delta.OpNoOp, delta.OpApplied}, 30)
			want := []MutationResult{{Version: 1, Applied: 1, NoOps: 1}, {Version: 1, Applied: 1}}
			if !slices.Equal(res, want) || len(p.sealed) != 0 || p.snapOps != 3 || p.snapBytes != 30 {
				t.Fatalf("results %+v, %d sealed, accounting %d ops %d bytes; want %+v, 0, 3, 30",
					res, len(p.sealed), p.snapOps, p.snapBytes, want)
			}
		}},
		{"the policy pins a cut once due, one at a time", func(t *testing.T, p *commits) {
			p.policy = snapshot.Policy{EveryOps: 4}
			commitOne(t, p, 3)
			if start, _ := p.pinNext(1, t0); start {
				t.Fatal("a cut pinned 3 ops into a 4-op policy")
			}
			commitOne(t, p, 1)
			if start, _ := p.pinNext(2, t0); !start || p.snapOps != 0 || p.lastSnapVersion != 2 {
				t.Fatalf("pinned=%v at 4 ops, accounting left at %d ops, version %d; want a pin, 0, 2",
					start, p.snapOps, p.lastSnapVersion)
			}
			commitOne(t, p, 4)
			if start, _ := p.pinNext(3, t0); start {
				t.Fatal("a second cut pinned while one is in flight")
			}
			p.land(cutDone{res: snapshot.Result{Version: 2, Cut: true, Persisted: true}, floor: 2}, 0)
			if start, _ := p.pinNext(3, t0); !start {
				t.Fatal("the due policy pinned no follow-up once the cut landed")
			}
		}},
		{"an aborted cut restores the accounting", func(t *testing.T, p *commits) {
			commitOne(t, p, 3)
			ch := make(chan snapshot.Result, 1)
			if start, _ := ask(p, ch, 1, t0.Add(time.Second)); !start {
				t.Fatal("a request for an uncut version pinned no cut")
			}
			if p.snapOps != 0 || p.lastSnapVersion != 1 {
				t.Fatalf("pin left accounting %d ops at version %d, want 0 at 1", p.snapOps, p.lastSnapVersion)
			}
			commitOne(t, p, 2) // commits while the cutter runs
			_, waiters := p.land(cutDone{res: snapshot.Result{Version: 1}, aborted: true}, 0)
			if !slices.Equal(waiters, []chan snapshot.Result{ch}) {
				t.Fatal("the request does not wait for the aborted cut")
			}
			if p.cut != nil || p.snapOps != 5 || p.snapBytes != 50 || p.lastSnapVersion != 0 || !p.lastSnapAt.Equal(t0) {
				t.Fatalf("after the abort: %d ops, %d bytes, last cut at version %d (%v); want 5, 50, version 0 (%v)",
					p.snapOps, p.snapBytes, p.lastSnapVersion, p.lastSnapAt, t0)
			}
		}},
		{"a failed persist leaves the version re-cuttable", func(t *testing.T, p *commits) {
			commitOne(t, p, 1)
			// The store's floor stays at 0 when the persist fails.
			for floor, persisted := range []bool{false, true} {
				if start, _ := ask(p, make(chan snapshot.Result, 1), 1, t0); !start {
					t.Fatalf("request %d for version 1 pinned no cut", floor+1)
				}
				res := snapshot.Result{Version: 1, Cut: true, Persisted: persisted}
				if got, _ := p.land(cutDone{res: res, floor: uint64(floor)}, 0); got != uint64(floor) {
					t.Fatalf("truncation floor %d, want the store's %d", got, floor)
				}
			}
			if start, current := ask(p, make(chan snapshot.Result, 1), 1, t0); start || !current {
				t.Fatal("a durably cut version was cut again")
			}
		}},
		{"a private store's cut truncates nothing", func(t *testing.T, p *commits) {
			p.private = true
			commitOne(t, p, 1)
			ask(p, make(chan snapshot.Result, 1), 1, t0)
			res := snapshot.Result{Version: 1, Cut: true}
			if floor, _ := p.land(cutDone{res: res, floor: 1}, 0); floor != 0 {
				t.Fatalf("truncation floor %d, want the log's base 0", floor)
			}
		}},
		{"a request during a cut waits for the follow-up", func(t *testing.T, p *commits) {
			commitOne(t, p, 1)
			ask(p, make(chan snapshot.Result, 1), 1, t0)
			commitOne(t, p, 1)
			ch := make(chan snapshot.Result, 1)
			if start, current := ask(p, ch, 2, t0); start || current {
				t.Fatal("a second cut started while one is in flight")
			}
			p.land(cutDone{res: snapshot.Result{Version: 1, Cut: true, Persisted: true}, floor: 1}, 0)
			if start, _ := p.pinNext(2, t0); !start || !slices.Equal(p.cut.waiters, []chan snapshot.Result{ch}) {
				t.Fatal("the follow-up cut of version 2 did not start for the queued request")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &commits{maxBatchOps: 3, commitEvery: 250 * time.Millisecond, onDisk: true, lastSnapAt: t0}
			tc.run(t, p)
		})
	}
}

// TestIntervalCutWhileIdle: the Interval trigger fires on the tick once
// the graph went idle, not only after the next commit.
func TestIntervalCutWhileIdle(t *testing.T) {
	now := time.Unix(1_000, 0)
	c := newLoopless(t, 2, func(cfg *Config) {
		cfg.MaxBatchOps = 1
		cfg.SnapshotPolicy = snapshot.Policy{Interval: 50 * time.Millisecond}
		cfg.Clock = func() time.Time { return now }
	})
	ch := make(chan MutationResult, 1)
	c.onMutate(mutateReq{ops: []delta.Op{{Kind: delta.OpAddVertex}}, ch: ch})
	if err := c.onWalAck(<-c.walAckCh); err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Version != 1 {
		t.Fatalf("commit %+v, want version 1", res)
	}
	now = now.Add(time.Second)
	c.onTick()
	if c.commits.cut == nil {
		t.Fatal("no cut a second after the last commit, under a 50ms interval")
	}
	c.onCutDone(runJob(t, c).(cutDone))
	if v := c.SnapshotStats().LastSnapshotVersion; v != 1 {
		t.Fatalf("last cut at version %d, want 1", v)
	}
}

// TestRecoveryHoldsDurableCommits: a batch that becomes durable during a
// recovery round stays unapplied, its caller unanswered, until the round
// completes; then it applies behind the GlobalStart, with its new vertex
// moved off the dead worker.
func TestRecoveryHoldsDurableCommits(t *testing.T) {
	c, net := newLooplessNet(t, 2, func(cfg *Config) { cfg.MaxBatchOps = 1 })
	ch := make(chan MutationResult, 1)
	c.onMutate(mutateReq{ops: []delta.Op{{Kind: delta.OpAddVertex}}, ch: ch})
	if len(c.commits.sealed) != 1 {
		t.Fatalf("%d batches sealed, want 1", len(c.commits.sealed))
	}
	c.onWorkerDead(1)
	if err := c.onWalAck(<-c.walAckCh); err != nil {
		t.Fatal(err)
	}
	if v := c.GraphVersion(); v != 0 {
		t.Fatalf("version %d mid-recovery, want 0", v)
	}
	select {
	case res := <-ch:
		t.Fatalf("caller answered mid-recovery: %+v", res)
	default:
	}

	ack := &protocol.PartitionAck{Gen: c.members.gen, W: 0, Version: 0}
	if err := c.handle(transport.Envelope{From: protocol.WorkerNode(0), Msg: ack}); err != nil {
		t.Fatal(err)
	}
	if v := c.GraphVersion(); v != 1 {
		t.Fatalf("version %d after the round, want 1", v)
	}
	select {
	case res := <-ch:
		if res.Err != nil || res.Version != 1 {
			t.Fatalf("commit %+v, want version 1", res)
		}
	default:
		t.Fatal("the held commit never answered its caller")
	}
	if o := c.owner[8]; o != 0 {
		t.Fatalf("new vertex owned by worker %d, want the survivor 0", o)
	}
	var got []string
	inbox := net.Conn(protocol.WorkerNode(0)).Inbox()
	for !slices.Contains(got, "DeltaBatch") {
		select {
		case env := <-inbox:
			got = append(got, strings.TrimPrefix(fmt.Sprintf("%T", env.Msg), "*protocol."))
		case <-time.After(5 * time.Second):
			t.Fatalf("worker 0 received %v and no DeltaBatch", got)
		}
	}
	if i := slices.Index(got, "GlobalStart"); i < 0 || i > slices.Index(got, "DeltaBatch") {
		t.Fatalf("worker 0 received %v, want GlobalStart before the DeltaBatch", got)
	}
}
