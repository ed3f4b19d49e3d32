package controller

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// windowOf puts n finished queries, ids from first, into c's window at
// now: each spread over the workers by sizes, 1 superstep in every
// 1/loc of them local.
func windowOf(c *Controller, first query.ID, n int, sizes []int64, loc float64, now time.Time) {
	for q := first; q < first+query.ID(n); q++ {
		c.windowAdd(&qctl{
			spec:  query.Spec{ID: q},
			round: round{scopeSizes: sizes, stepsDone: 100, localSteps: int(100 * loc)},
		}, now)
	}
}

// plans runs the tick and says whether it started Q-cut. A plan it
// started gets its statistics, and its Q-cut job is taken and dropped.
func plans(t *testing.T, c *Controller) bool {
	t.Helper()
	before := c.adapt.plan
	c.onTick()
	if c.adapt.plan == nil || c.adapt.plan == before {
		return false
	}
	answer(t, c)
	if _, ok := runJob(t, c).(qcut.Result); !ok {
		t.Fatal("the plan's statistics are in, and its job is no Q-cut run")
	}
	return true
}

// runJob runs the oldest job c's transitions handed out, as the pump would
// start it, and returns its report unstepped.
func runJob(t *testing.T, c *Controller) any {
	t.Helper()
	if len(c.jobs) == 0 {
		t.Fatal("no job handed out")
	}
	j := c.jobs[0]
	c.jobs = c.jobs[1:]
	return j()
}

// TestBalanceTriggerFiresOnSkewOnly: with every windowed query fully local,
// Q-cut starts only when the combined load Lw of Appendix A.1 is spread by
// more than δ across the workers. Both cases own four vertices per worker;
// what differs is where the window's scope mass sits.
func TestBalanceTriggerFiresOnSkewOnly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int64
		want  bool
	}{
		{"scopes skewed onto worker 0", []int64{40, 0}, true},
		{"scopes equal", []int64{20, 20}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_000, 0)
			c := newLoopless(t, 2, func(cfg *Config) {
				cfg.Adapt = true
				cfg.Owner = partition.Assignment{0, 1, 0, 1, 0, 1, 0, 1}
				cfg.Clock = func() time.Time { return now }
			})
			windowOf(c, 1, 8, tc.sizes, 1, now)
			if loc := c.avgLocality(); loc != 1 {
				t.Fatalf("window locality %v, want 1: only the balance rule may fire", loc)
			}
			if got := plans(t, c); got != tc.want {
				t.Fatalf("imbalance %.2f against δ %.2f: Q-cut started = %v, want %v",
					qcut.Imbalance(c.snapshot(nil)), balanceSlack, got, tc.want)
			}
		})
	}
}

// TestBalanceTriggerReadsThePrunedWindow: the balance rule reads the
// window μ keeps. Eight skewed queries finished more than μ ago; the eight
// left are balanced and fully local, so nothing calls for a plan.
func TestBalanceTriggerReadsThePrunedWindow(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	now := t0
	c := newLoopless(t, 2, func(cfg *Config) {
		cfg.Adapt = true
		cfg.Owner = partition.Assignment{0, 1, 0, 1, 0, 1, 0, 1}
		cfg.Clock = func() time.Time { return now }
	})
	windowOf(c, 1, 8, []int64{40, 0}, 1, t0)
	windowOf(c, 9, 8, []int64{20, 20}, 1, t0.Add(protocol.DefaultMu/2))
	now = t0.Add(protocol.DefaultMu + time.Second)
	if plans(t, c) {
		t.Fatalf("Q-cut started over a window of %d balanced, fully local queries", len(c.window))
	}
	if len(c.window) != 8 {
		t.Fatalf("the tick left %d queries in the window, want the 8 within μ", len(c.window))
	}
}

// TestRecoveryIsNotAPlanForBackoff: the trigger backoff doubles the
// cooldown when the previous Q-cut plan did not raise locality. A recovery
// handoff bumps the repartition epoch too, but it is no plan: the first
// trigger after a worker death has nothing to compare against and must
// leave the cooldown alone — even at the locality of a Hash-partitioned
// graph, which is below the backoff's 0.02 margin over a locality of zero.
// The event loop never runs; the test calls its handlers in the order the
// loop would, on a clock it advances itself.
func TestRecoveryIsNotAPlanForBackoff(t *testing.T) {
	now := time.Unix(1_000, 0)
	c := newLoopless(t, 2, func(cfg *Config) {
		cfg.Adapt, cfg.Cooldown = true, time.Second
		cfg.HeartbeatEvery, cfg.HeartbeatTimeout = 10*time.Millisecond, 20*time.Millisecond
		cfg.Clock = func() time.Time { return now }
	})

	// Worker 0 answers every probe, worker 1 none: it is declared dead and,
	// with no respawn configured, handed off at once.
	for i := 0; i < 10 && len(c.members.dead) == 0; i++ {
		now = now.Add(c.cfg.HeartbeatEvery)
		c.onTick()
		c.onPong(&protocol.Pong{W: 0, Seq: c.members.pingSeq})
	}
	if !c.members.dead[1] || c.adapt.phase != phaseRecover {
		t.Fatalf("dead=%v phase=%d, want worker 1 dead and a recovery round open", c.members.dead, c.adapt.phase)
	}
	if err := c.onPartitionAck(&protocol.PartitionAck{W: 0, Gen: c.members.gen, Version: c.GraphVersion()}); err != nil {
		t.Fatal(err)
	}
	if c.adapt.phase != phaseRun || c.RepartitionEpoch() != 1 {
		t.Fatalf("phase=%d repartitions=%d, want recovery complete and counted as one repartition", c.adapt.phase, c.RepartitionEpoch())
	}

	windowOf(c, 1, 8, make([]int64, c.cfg.K), 0.01, now)
	now = now.Add(2 * c.cfg.Cooldown)
	if !plans(t, c) {
		t.Fatal("locality 0.01 past the cooldown did not trigger Q-cut")
	}
	if c.adapt.curCooldown != c.cfg.Cooldown {
		t.Fatalf("first trigger after a recovery left cooldown %s, want %s: no plan had run to back off from",
			c.adapt.curCooldown, c.cfg.Cooldown)
	}
}

// TestAbortedPlanIsNotABackoffBase: a plan whose global barrier a recovery
// round aborted never executed, so the next trigger, at the same locality,
// has no plan to back off from.
func TestAbortedPlanIsNotABackoffBase(t *testing.T) {
	now := time.Unix(1_000, 0)
	c := newLoopless(t, 2, func(cfg *Config) {
		cfg.Adapt, cfg.Cooldown = true, time.Second
		cfg.Clock = func() time.Time { return now }
	})
	windowOf(c, 1, 8, []int64{10, 10}, 0.5, now)
	if !plans(t, c) {
		t.Fatal("locality 0.5 did not trigger Q-cut")
	}
	c.onQcutDone(qcut.Result{Moves: []qcut.Move{{Q: 1, From: 0, To: 1}}})
	if c.adapt.phase != phaseStopping {
		t.Fatalf("phase %d, want the plan's barrier stopping", c.adapt.phase)
	}
	c.onWorkerDead(1)
	if err := c.onPartitionAck(&protocol.PartitionAck{W: 0, Gen: c.members.gen, Version: c.GraphVersion()}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(c.cfg.Cooldown)
	if !plans(t, c) {
		t.Fatal("locality 0.5 past the cooldown did not trigger Q-cut")
	}
	if c.adapt.curCooldown != c.cfg.Cooldown {
		t.Fatalf("cooldown %s after an aborted plan, want %s: that plan never executed",
			c.adapt.curCooldown, c.cfg.Cooldown)
	}
}

// TestGlobalBarrierTransitions drives the global barrier, STOP → MOVE →
// START, through the transitions and the controller's handlers alone: no
// event loop and no clock. What the workers would receive is read from
// their ends of the network.
func TestGlobalBarrierTransitions(t *testing.T) {
	now := time.Unix(1_000, 0)
	const cooldown = time.Second
	fresh := func(t *testing.T, k int) (*Controller, *transport.ChanNetwork) {
		return newLooplessNet(t, k, func(cfg *Config) {
			cfg.Owner = partition.Assignment{0, 1, 0, 1, 0, 1, 0, 1}
			cfg.Clock = func() time.Time { return now }
		})
	}
	// begin hands the controller a plan of moves, as Q-cut would.
	begin := func(c *Controller, moves ...qcut.Move) {
		c.adapt.trigger(minWindowQueries, 0, 0)
		c.onQcutDone(qcut.Result{Moves: moves})
	}
	deliver := func(t *testing.T, c *Controller, w partition.WorkerID, m protocol.Message) {
		t.Helper()
		if err := c.handle(transport.Envelope{From: protocol.WorkerNode(w), Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	stopAcks := func(t *testing.T, c *Controller, ws ...partition.WorkerID) {
		t.Helper()
		for _, w := range ws {
			deliver(t, c, w, &protocol.StopAck{Epoch: c.adapt.epoch, W: w})
		}
	}
	// sent drains what worker w received, by message type.
	sent := func(net *transport.ChanNetwork, w partition.WorkerID) (got []protocol.Message) {
		for {
			select {
			case env, ok := <-net.Conn(protocol.WorkerNode(w)).Inbox():
				if !ok {
					return got
				}
				got = append(got, env.Msg)
			default:
				return got
			}
		}
	}
	names := func(ms []protocol.Message) (out []string) {
		for _, m := range ms {
			out = append(out, strings.TrimPrefix(fmt.Sprintf("%T", m), "*protocol."))
		}
		return out
	}
	bfs := func(c *Controller, q query.ID) chan Result {
		ch := make(chan Result, 1)
		c.onSchedule(scheduleReq{spec: query.Spec{ID: q, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}, ch: ch})
		return ch
	}
	// reportStep0 completes query q's superstep 0 on worker 0, which owns
	// its source.
	reportStep0 := func(t *testing.T, c *Controller, q query.ID) {
		t.Helper()
		deliver(t, c, 0, &protocol.BarrierSynch{
			Q: q, W: 0, Step: 0, FromStep: 0, Processed: 1, NActiveNext: 1, ScopeSize: 1,
			SentBatches: make([]int32, c.cfg.K), BestGoal: query.NoResult, MinFrontier: query.NoResult,
		})
	}
	// execute runs one plan at locality loc through the machine alone.
	execute := func(t *testing.T, a *adapt, loc float64) {
		t.Helper()
		if !a.trigger(minWindowQueries, loc, 0) || !a.planned(now, []qcut.Move{{Q: 1, From: 0, To: 1}}, nil) ||
			!a.quiesced(false, 1) {
			t.Fatalf("the plan at locality %v did not reach stopping: phase %d", loc, a.phase)
		}
		if moves, err := a.stopAck(a.epoch); err != nil || len(moves) != 1 {
			t.Fatalf("stop ack: moves %v, %v", moves, err)
		}
		if last, err := a.moveAck(&protocol.MoveAck{Epoch: a.epoch, Q: 1, To: 1}); !last || err != nil {
			t.Fatalf("move ack: last %v, %v", last, err)
		}
		a.resume()
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"quiesce waits for an outstanding round", func(t *testing.T) {
			c, net := fresh(t, 2)
			bfs(c, 1)
			begin(c, qcut.Move{Q: 1, From: 0, To: 1})
			if c.adapt.phase != phaseQuiesce || slices.Contains(names(sent(net, 0)), "GlobalStop") {
				t.Fatalf("phase %d with superstep 0 outstanding, want quiesce and no GlobalStop", c.adapt.phase)
			}
			reportStep0(t, c, 1)
			if c.adapt.phase != phaseStopping || c.queries[1].outstanding {
				t.Fatalf("phase %d after the report, want stopping with the next superstep held", c.adapt.phase)
			}
			if got := names(sent(net, 0)); !slices.Equal(got, []string{"GlobalStop"}) {
				t.Fatalf("worker 0 received %v, want the GlobalStop alone", got)
			}
		}},
		{"GlobalStop names only the live workers", func(t *testing.T) {
			c, net := fresh(t, 3)
			c.members.die(1, now)
			begin(c, qcut.Move{Q: 1, From: 0, To: 2}, qcut.Move{Q: 2, From: 1, To: 2})
			for _, w := range []partition.WorkerID{0, 2} {
				got := sent(net, w)
				if len(got) != 1 {
					t.Fatalf("worker %d received %v, want one GlobalStop", w, names(got))
				}
				if gs, ok := got[0].(*protocol.GlobalStop); !ok || gs.Epoch != 1 || !slices.Equal(gs.Live, []partition.WorkerID{0, 2}) {
					t.Fatalf("worker %d received %+v, want GlobalStop of epoch 1 naming 0 and 2", w, got[0])
				}
			}
			if c.adapt.acksLeft != 2 {
				t.Fatalf("%d StopAcks due, want one per live worker", c.adapt.acksLeft)
			}
			stopAcks(t, c, 0, 2)
			if c.adapt.phase != phaseMoving || c.adapt.acksLeft != 1 {
				t.Fatalf("phase %d with %d MoveAcks due: the move from the dead worker must go", c.adapt.phase, c.adapt.acksLeft)
			}
		}},
		{"a wrong-epoch or wrong-phase StopAck or MoveAck is an error", func(t *testing.T) {
			a := newAdapt(&Config{K: 2, Cooldown: cooldown})
			if _, err := a.stopAck(0); err == nil {
				t.Fatal("a StopAck in run was accepted")
			}
			if _, err := a.moveAck(&protocol.MoveAck{}); err == nil {
				t.Fatal("a MoveAck in run was accepted")
			}
			a.trigger(minWindowQueries, 0, 0)
			a.planned(now, []qcut.Move{{Q: 1, From: 0, To: 1}}, nil)
			a.quiesced(false, 2)
			if _, err := a.stopAck(a.epoch - 1); err == nil {
				t.Fatal("a StopAck of the last epoch was accepted")
			}
			if _, err := a.moveAck(&protocol.MoveAck{Epoch: a.epoch}); err == nil {
				t.Fatal("a MoveAck while stopping was accepted")
			}
			a.stopAck(a.epoch)
			a.stopAck(a.epoch)
			if _, err := a.stopAck(a.epoch); err == nil {
				t.Fatal("a StopAck while moving was accepted")
			}
			if _, err := a.moveAck(&protocol.MoveAck{Epoch: a.epoch + 1}); err == nil {
				t.Fatal("a MoveAck of the next epoch was accepted")
			}
		}},
		{"MoveScope goes to the source only after the last StopAck", func(t *testing.T) {
			c, net := fresh(t, 2)
			begin(c, qcut.Move{Q: 7, From: 0, To: 1})
			sent(net, 0)
			sent(net, 1)
			stopAcks(t, c, 0)
			if got := names(sent(net, 0)); c.adapt.phase != phaseStopping || len(got) != 0 {
				t.Fatalf("phase %d, worker 0 received %v with worker 1's StopAck due", c.adapt.phase, got)
			}
			stopAcks(t, c, 1)
			got := sent(net, 0)
			if ms, ok := got[0].(*protocol.MoveScope); len(got) != 1 || !ok || ms.Q != 7 || ms.To != 1 || ms.Epoch != c.adapt.epoch {
				t.Fatalf("worker 0 received %v, want the one MoveScope of query 7 to worker 1", names(got))
			}
			if got := sent(net, 1); len(got) != 0 || c.adapt.phase != phaseMoving {
				t.Fatalf("phase %d, the target received %v", c.adapt.phase, names(got))
			}
		}},
		{"OwnershipUpdate is sent once, and not at all when no vertex moved", func(t *testing.T) {
			for _, vertices := range [][][]graph.VertexID{{{2}, {4, 6}}, {nil, nil}} {
				c, net := fresh(t, 2)
				begin(c, qcut.Move{Q: 1, From: 0, To: 1}, qcut.Move{Q: 2, From: 0, To: 1})
				stopAcks(t, c, 0, 1)
				sent(net, 1)
				for i, vs := range vertices {
					deliver(t, c, 1, &protocol.MoveAck{Epoch: c.adapt.epoch, Q: query.ID(i + 1), From: 0, To: 1, Vertices: vs})
				}
				got := sent(net, 1)
				moved := slices.Concat(vertices...)
				want := []string{"GlobalStart"}
				if len(moved) > 0 {
					want = []string{"OwnershipUpdate", "GlobalStart"}
					if ou := got[0].(*protocol.OwnershipUpdate); !slices.Equal(ou.Vertices, moved) ||
						!slices.Equal(ou.Owners, []partition.WorkerID{1, 1, 1}) {
						t.Fatalf("ownership update %+v, want vertices %v to worker 1", ou, moved)
					}
				}
				if !slices.Equal(names(got), want) || c.adapt.phase != phaseRun || c.RepartitionEpoch() != 1 {
					t.Fatalf("moved %v: phase %d, worker 1 received %v, want %v", moved, c.adapt.phase, names(got), want)
				}
				if c.vertCount[0] != 4-int64(len(moved)) || (len(moved) > 0 && c.owner[4] != 1) {
					t.Fatalf("moved %v: vertex counts %v, owner %v", moved, c.vertCount, c.owner)
				}
			}
		}},
		{"a schedule during quiesce is deferred and flushed at resume", func(t *testing.T) {
			c, _ := fresh(t, 2)
			bfs(c, 1)
			begin(c, qcut.Move{Q: 1, From: 0, To: 1})
			bfs(c, 2)
			if len(c.deferred) != 1 || c.queries[2] != nil {
				t.Fatalf("%d deferred, query 2 active %v, want it deferred", len(c.deferred), c.queries[2] != nil)
			}
			reportStep0(t, c, 1)
			stopAcks(t, c, 0, 1)
			deliver(t, c, 1, &protocol.MoveAck{Epoch: c.adapt.epoch, Q: 1, From: 0, To: 1})
			if len(c.deferred) != 0 || c.queries[2] == nil || !c.queries[1].outstanding {
				t.Fatalf("after resume: %d deferred, query 2 active %v, want it started and query 1 released",
					len(c.deferred), c.queries[2] != nil)
			}
		}},
		{"a cancel during stopping finishes at resume", func(t *testing.T) {
			c, _ := fresh(t, 2)
			ch := bfs(c, 1)
			begin(c, qcut.Move{Q: 1, From: 0, To: 1})
			reportStep0(t, c, 1)
			c.onCancel(1)
			if len(ch) != 0 || c.queries[1] == nil {
				t.Fatal("a cancel while stopping finished the query with the network not yet quiet")
			}
			stopAcks(t, c, 0, 1)
			deliver(t, c, 1, &protocol.MoveAck{Epoch: c.adapt.epoch, Q: 1, From: 0, To: 1})
			select {
			case res := <-ch:
				if res.Reason != protocol.FinishCancelled || c.queries[1] != nil {
					t.Fatalf("result %+v at resume, want cancelled", res)
				}
			default:
				t.Fatal("the cancelled query did not finish at resume")
			}
		}},
		{"a recovery mid-barrier drops the moves", func(t *testing.T) {
			c, net := fresh(t, 2)
			begin(c, qcut.Move{Q: 1, From: 0, To: 1})
			stopAcks(t, c, 0)
			c.onWorkerDead(1)
			if c.adapt.phase != phaseRecover || c.adapt.plan != nil || c.adapt.acksLeft != 0 {
				t.Fatalf("phase %d, plan %v, %d acks due: want the barrier dropped", c.adapt.phase, c.adapt.plan, c.adapt.acksLeft)
			}
			stopAcks(t, c, 0) // a straggler, dropped mid-recovery
			deliver(t, c, 0, &protocol.PartitionAck{W: 0, Gen: c.members.gen, Version: c.GraphVersion()})
			if got := names(sent(net, 0)); slices.Contains(got, "MoveScope") || c.adapt.phase != phaseRun {
				t.Fatalf("phase %d, worker 0 received %v, want the round over and no move", c.adapt.phase, got)
			}
			if c.adapt.raised != noPlan || c.RepartitionEpoch() != 1 {
				t.Fatalf("raised %v, %d repartitions: the aborted plan counts as executed", c.adapt.raised, c.RepartitionEpoch())
			}
		}},
		{"a plan Q-cut computes through a recovery round still executes", func(t *testing.T) {
			c, _ := fresh(t, 3)
			c.adapt.trigger(minWindowQueries, 0.5, 0)
			c.onWorkerDead(1)
			deliver(t, c, 0, &protocol.PartitionAck{W: 0, Gen: c.members.gen, Version: c.GraphVersion()})
			deliver(t, c, 2, &protocol.PartitionAck{W: 2, Gen: c.members.gen, Version: c.GraphVersion()})
			if c.adapt.phase != phaseRun || c.adapt.plan == nil || c.adapt.raised != noPlan {
				t.Fatalf("phase %d, plan %v, raised %v: the recovery round ended the plan Q-cut computes",
					c.adapt.phase, c.adapt.plan, c.adapt.raised)
			}
			c.onQcutDone(qcut.Result{Moves: []qcut.Move{{Q: 1, From: 0, To: 2}, {Q: 2, From: 1, To: 2}}})
			stopAcks(t, c, 0, 2)
			if c.adapt.phase != phaseMoving || c.adapt.acksLeft != 1 {
				t.Fatalf("phase %d with %d MoveAcks due, want the live move alone", c.adapt.phase, c.adapt.acksLeft)
			}
			deliver(t, c, 2, &protocol.MoveAck{Epoch: c.adapt.epoch, Q: 1, From: 0, To: 2})
			if c.adapt.phase != phaseRun || c.adapt.raised != 0.5 {
				t.Fatalf("phase %d, raised %v: the plan executed at locality 0.5", c.adapt.phase, c.adapt.raised)
			}
		}},
		{"the backoff doubles, then resets, capped at 16x", func(t *testing.T) {
			a := newAdapt(&Config{K: 2, Cooldown: cooldown})
			execute(t, &a, 0.5)
			if a.curCooldown != cooldown || a.raised != 0.5 {
				t.Fatalf("cooldown %s, raised %v after the first plan, want %s and 0.5", a.curCooldown, a.raised, cooldown)
			}
			for _, want := range []time.Duration{2, 4, 8, 16, 16} {
				execute(t, &a, 0.51)
				if a.curCooldown != want*cooldown {
					t.Fatalf("cooldown %s, want %s", a.curCooldown, want*cooldown)
				}
			}
			execute(t, &a, 0.6)
			if a.curCooldown != cooldown {
				t.Fatalf("cooldown %s after locality rose, want %s", a.curCooldown, cooldown)
			}
			execute(t, &a, 0.6)
			if a.trigger(minWindowQueries, defaultPhi, balanceSlack) || a.curCooldown != cooldown {
				t.Fatalf("a window at Φ and δ planned, or left cooldown %s", a.curCooldown)
			}
			if a.trigger(minWindowQueries-1, 0, 1) {
				t.Fatal("a window of too few queries planned")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestPlanGetsItsBudget: Q-cut's budget bounds its own run on the wall
// clock it reads, so a controller on another clock (here a fixed one, long
// past) still gets perturbation rounds out of its plan.
func TestPlanGetsItsBudget(t *testing.T) {
	now := time.Unix(1_000, 0)
	c := newLoopless(t, 2, func(cfg *Config) {
		cfg.Adapt = true
		cfg.Owner = partition.Assignment{0, 1, 0, 1, 0, 1, 0, 1}
		cfg.Clock = func() time.Time { return now }
	})
	windowOf(c, 1, 8, []int64{20, 20}, 0, now)
	c.onTick()
	answer(t, c)
	if res, ok := runJob(t, c).(qcut.Result); !ok || res.Rounds == 0 {
		t.Fatalf("the plan's Q-cut run gave %+v: no perturbation round", res)
	}
}
