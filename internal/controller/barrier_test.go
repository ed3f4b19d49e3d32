package controller

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/obs"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// workers is the set of the given workers.
func workers(ws ...partition.WorkerID) map[partition.WorkerID]bool {
	set := make(map[partition.WorkerID]bool, len(ws))
	for _, w := range ws {
		set[w] = true
	}
	return set
}

// TestRoundTransitions drives one query's round on three workers through
// its transitions alone: no event loop, no network, no clock.
func TestRoundTransitions(t *testing.T) {
	// report hands r worker w's report on step and fails on a protocol
	// error; it returns whether the step is now fully reported.
	report := func(t *testing.T, r *round, w partition.WorkerID, step int32, mut func(*protocol.BarrierSynch)) bool {
		t.Helper()
		complete, err := r.report(synch(1, w, step, mut))
		if err != nil {
			t.Fatal(err)
		}
		return complete
	}
	active := func(s *protocol.BarrierSynch) { s.Processed, s.NActiveNext = 1, 1 }
	for _, tc := range []struct {
		name     string
		mode     SyncMode
		maxIters int
		run      func(t *testing.T, r *round)
	}{
		{name: "hybrid runs a one-worker superstep solo", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			if solo := r.release(workers(1), nil, false); !solo || !maps.Equal(r.involved, workers(1)) || !r.outstanding {
				t.Fatalf("solo %v, involved %v, outstanding %v", solo, r.involved, r.outstanding)
			}
		}},
		{name: "limited never runs solo", mode: SyncLimited, run: func(t *testing.T, r *round) {
			if solo := r.release(workers(1), nil, false); solo || !maps.Equal(r.involved, workers(1)) {
				t.Fatalf("solo %v, involved %v", solo, r.involved)
			}
		}},
		{name: "global widens every release to the live workers", mode: SyncGlobal, run: func(t *testing.T, r *round) {
			if solo := r.release(workers(1), workers(2), false); solo || !maps.Equal(r.involved, workers(0, 1)) {
				t.Fatalf("solo %v, involved %v", solo, r.involved)
			}
		}},
		{name: "a drained release widens to the live workers and is not solo", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			if solo := r.release(nil, workers(0, 2), true); solo || !maps.Equal(r.involved, workers(1)) {
				t.Fatalf("solo %v, involved %v", solo, r.involved)
			}
		}},
		{name: "a report from an uninvolved worker is an error", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			if _, err := r.report(synch(1, 1, 0, nil)); err == nil {
				t.Fatal("worker 1 reported on a superstep of worker 0 alone")
			}
			if len(r.reports) != 0 || r.scopeSizes[1] != 0 {
				t.Fatalf("the refused report counted: %v, sizes %v", r.reports, r.scopeSizes)
			}
		}},
		{name: "a second report from one worker is an error", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			if report(t, r, 0, 0, nil) {
				t.Fatal("complete with worker 1 still due")
			}
			if _, err := r.report(synch(1, 0, 0, nil)); err == nil {
				t.Fatal("worker 0 reported twice")
			}
		}},
		{name: "collect sums the batches each worker awaits", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { s.Processed, s.SentBatches[2] = 1, 2 })
			if !report(t, r, 1, 0, func(s *protocol.BarrierSynch) { active(s); s.SentBatches[2] = 1 }) {
				t.Fatal("both workers reported, step not complete")
			}
			end, next, expect := r.collect()
			if end != 0 || !maps.Equal(next, workers(1, 2)) || !maps.Equal(expect, map[partition.WorkerID]int32{2: 3}) {
				t.Fatalf("end %v, next %v, expect %v", end, next, expect)
			}
			if r.step != 0 || r.outstanding || r.stepsDone != 1 || r.localSteps != 0 {
				t.Fatalf("step %d, outstanding %v, %d steps, %d local", r.step, r.outstanding, r.stepsDone, r.localSteps)
			}
		}},
		{name: "a solo loop's steps are local, and so is its collected step", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 3, func(s *protocol.BarrierSynch) { active(s); s.FromStep, s.LocalIters = 0, 3 })
			if end, _, _ := r.collect(); end != 0 || r.step != 3 || r.stepsDone != 4 || r.localSteps != 4 {
				t.Fatalf("end %v, step %d, %d steps, %d local", end, r.step, r.stepsDone, r.localSteps)
			}
		}},
		{name: "no worker active next converges", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { s.Processed = 1 })
			if end, _, _ := r.collect(); end != protocol.FinishConverged {
				t.Fatalf("end %v", end)
			}
		}},
		{name: "no frontier below the best goal ends early", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { active(s); s.BestGoal, s.MinFrontier = 5, 5 })
			if end, _, _ := r.collect(); end != protocol.FinishEarly {
				t.Fatalf("end %v", end)
			}
		}},
		{name: "the last allowed iteration ends the query", mode: SyncHybrid, maxIters: 2, run: func(t *testing.T, r *round) {
			for step := int32(0); step < 2; step++ {
				r.release(workers(0), nil, false)
				report(t, r, 0, step, active)
				want := protocol.FinishReason(0)
				if step == 1 {
					want = protocol.FinishMaxIters
				}
				if end, _, _ := r.collect(); end != want {
					t.Fatalf("step %d: end %v, want %v", step, end, want)
				}
			}
		}},
		{name: "restart keeps the work done and drops the discarded run", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) {
				active(s)
				s.ScopeSize, s.NewBlocks, s.BestGoal = 4, []int32{3}, 7
			})
			r.collect()
			r.release(workers(0), nil, false)
			r.restart()
			if r.stepsDone != 1 || r.localSteps != 1 {
				t.Fatalf("%d steps, %d local: the restart lost work done", r.stepsDone, r.localSteps)
			}
			if r.step != -1 || r.outstanding || r.involved != nil || r.scopeSizes[0] != 0 || r.everActive[0] ||
				len(r.blocks) != 0 || r.bestGoal != query.NoResult {
				t.Fatalf("restarted round %+v", *r)
			}
		}},
		{name: "the result counts the scope, its workers and its blocks", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { s.ScopeSize, s.NewBlocks, s.BestGoal = 3, []int32{5, 2}, 9 })
			report(t, r, 1, 0, func(s *protocol.BarrierSynch) { s.NewBlocks = []int32{2} })
			r.collect()
			res := r.result(1, 4, protocol.FinishConverged, 0)
			if res.Touched != 3 || res.Workers != 1 || !slices.Equal(res.Blocks, []int32{2, 5}) ||
				res.Value != 9 || res.Supersteps != 1 || res.Version != 4 {
				t.Fatalf("result %+v", res)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRound(3, tc.mode, query.MustNew(query.KindSSSP), tc.maxIters)
			tc.run(t, &r)
		})
	}
}

// TestCancelDuringRecoveryFinishes: a query cancelled during a recovery
// round, whose superstep was outstanding when the worker died, finishes
// when the round completes — its caller hears of the cancel and its pin
// goes.
func TestCancelDuringRecoveryFinishes(t *testing.T) {
	c := newLoopless(t, 2)
	ch := make(chan Result, 1)
	c.onSchedule(scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}, ch: ch})
	c.onWorkerDead(1)
	c.onCancel(1)
	ack := &protocol.PartitionAck{Gen: c.members.gen, W: 0, Version: c.GraphVersion()}
	if err := c.handle(transport.Envelope{From: protocol.WorkerNode(0), Msg: ack}); err != nil {
		t.Fatal(err)
	}
	if c.adapt.phase != phaseRun {
		t.Fatalf("phase %d after the last PartitionAck, want run", c.adapt.phase)
	}
	select {
	case res := <-ch:
		if res.Reason != protocol.FinishCancelled {
			t.Fatalf("result %+v, want cancelled", res)
		}
	default:
		t.Fatal("the cancelled query never finished")
	}
	if len(c.pins) != 0 || len(c.queries) != 0 {
		t.Fatalf("pins %v, %d active queries after the cancel", c.pins, len(c.queries))
	}
}

// TestStopClosesQuerySpans: Stop ends every traced in-flight query the
// way any other exit does, so its engine and superstep spans close.
func TestStopClosesQuerySpans(t *testing.T) {
	o := obs.New(nil)
	c := newLoopless(t, 2, func(cfg *Config) { cfg.Obs = o })
	tr := o.Tracer.Begin("request")
	o.Tracer.BindQuery(1, tr)
	ch := make(chan Result, 1)
	c.onSchedule(scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}, ch: ch})
	c.failActive()
	if res := <-ch; res.Reason != protocol.FinishCancelled {
		t.Fatalf("result %+v, want cancelled", res)
	}
	var spans, open []string
	var walk func(s obs.SpanView)
	walk = func(s obs.SpanView) {
		spans = append(spans, s.Name)
		if s.Open {
			open = append(open, s.Name)
		}
		for _, child := range s.Children {
			walk(child)
		}
	}
	// The root is the caller's request span; the engine's spans hang
	// below it.
	for _, s := range tr.View().Root.Children {
		walk(s)
	}
	if !slices.Contains(spans, "engine") || !slices.Contains(spans, "superstep 0") {
		t.Fatalf("spans %v: the query was not traced", spans)
	}
	if len(open) > 0 {
		t.Fatalf("spans left open after Stop: %v", open)
	}
}

// BenchmarkMultiWorkerRound is the controller's CPU for one superstep that
// involves all k workers: k BarrierSynch reports stepped in, each announcing
// a batch to every other worker, and the release of the next superstep out
// over the sim's links. No worker runs.
func BenchmarkMultiWorkerRound(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			g := lineGraph(16)
			owner := make(partition.Assignment, g.NumVertices())
			for v := range owner {
				owner[v] = partition.WorkerID(v % k)
			}
			net := newFifoNet(k + 1)
			now := time.Unix(1_000, 0)
			c, err := New(Config{K: k, Graph: g, Owner: owner, HeartbeatEvery: -1, Clock: func() time.Time { return now }},
				fifoConn{net, protocol.ControllerNode})
			if err != nil {
				b.Fatal(err)
			}
			c.onSchedule(scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}, ch: make(chan Result, 1)})
			reports := make([]*protocol.BarrierSynch, k)
			for w := range reports {
				sent := slices.Repeat([]int32{1}, k)
				sent[w] = 0
				reports[w] = &protocol.BarrierSynch{Q: 1, W: partition.WorkerID(w), Processed: 1, NActiveNext: 1, ScopeSize: 1,
					SentBatches: sent, BestGoal: query.NoResult, MinFrontier: 1}
			}
			// round steps every involved worker's report and drops what the
			// controller sent.
			round := func() {
				for w := range c.queries[1].involved {
					if err := c.step(transport.Envelope{From: protocol.WorkerNode(w), Msg: reports[w]}); err != nil {
						b.Fatal(err)
					}
				}
				for i := range net.links {
					net.links[i] = net.links[i][:0]
				}
				net.sent, net.fresh = net.sent[:0], net.fresh[:0]
			}
			round() // the source's worker alone, then every worker
			if n := len(c.queries[1].involved); n != k {
				b.Fatalf("%d workers involved, want %d", n, k)
			}
			b.ReportAllocs()
			for b.Loop() {
				round()
			}
		})
	}
}
