package controller

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/obs"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
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
	// error; it returns whether the round can now collect a superstep.
	report := func(t *testing.T, r *round, w partition.WorkerID, step int32, mut func(*protocol.BarrierSynch)) bool {
		t.Helper()
		if err := r.report(synch(1, w, step, mut)); err != nil {
			t.Fatal(err)
		}
		_, ok := r.due()
		return ok
	}
	// collect collects the superstep r can, and fails if there is none or
	// on a protocol error.
	collect := func(t *testing.T, r *round) (protocol.Decision, bool) {
		t.Helper()
		s, ok := r.due()
		if !ok {
			t.Fatal("no superstep to collect")
		}
		d, implicit, err := r.collect(s)
		if err != nil {
			t.Fatal(err)
		}
		return d, implicit
	}
	// covering makes a report cover the supersteps from to its step, with
	// processed vertices computed in them.
	covering := func(from, processed int32, mut func(*protocol.BarrierSynch)) func(*protocol.BarrierSynch) {
		return func(s *protocol.BarrierSynch) {
			s.FromStep, s.Processed = from, processed
			if mut != nil {
				mut(s)
			}
		}
	}
	active := func(s *protocol.BarrierSynch) { s.Processed, s.NActiveNext = 1, 1 }
	for _, tc := range []struct {
		name     string
		mode     SyncMode
		maxIters int
		run      func(t *testing.T, r *round)
	}{
		{name: "hybrid runs a one-worker superstep solo", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(1), nil, false)
			if !slices.Equal(r.peers, []partition.WorkerID{1}) || !maps.Equal(r.involved, workers(1)) || !r.outstanding {
				t.Fatalf("peers %v, involved %v, outstanding %v", r.peers, r.involved, r.outstanding)
			}
		}},
		{name: "limited never runs solo", mode: SyncLimited, run: func(t *testing.T, r *round) {
			r.release(workers(1), nil, false)
			if r.peers != nil || !maps.Equal(r.involved, workers(1)) {
				t.Fatalf("peers %v, involved %v", r.peers, r.involved)
			}
		}},
		{name: "global widens every release to the live workers", mode: SyncGlobal, run: func(t *testing.T, r *round) {
			r.release(workers(1), workers(2), false)
			if r.peers != nil || !maps.Equal(r.involved, workers(0, 1)) {
				t.Fatalf("peers %v, involved %v", r.peers, r.involved)
			}
		}},
		{name: "a drained release widens to the live workers and is not solo", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(nil, workers(0, 2), true)
			if r.peers != nil || !maps.Equal(r.involved, workers(1)) {
				t.Fatalf("peers %v, involved %v", r.peers, r.involved)
			}
		}},
		{name: "a report from an uninvolved worker is an error", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			if err := r.report(synch(1, 1, 0, nil)); err == nil {
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
			if err := r.report(synch(1, 0, 0, nil)); err == nil {
				t.Fatal("worker 0 reported twice")
			}
		}},
		{name: "collect sums the batches each worker awaits", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { s.Processed, s.SentBatches[2] = 1, 2 })
			if !report(t, r, 1, 0, func(s *protocol.BarrierSynch) { active(s); s.SentBatches[2] = 1 }) {
				t.Fatal("both workers reported, step not complete")
			}
			d, implicit := collect(t, r)
			if d.End != 0 || implicit || !maps.Equal(d.Next, workers(1, 2)) || !maps.Equal(d.Expect, map[partition.WorkerID]int32{2: 3}) {
				t.Fatalf("decision %+v, implicit %v", d, implicit)
			}
			if r.step != 0 || r.outstanding || r.stepsDone != 1 || r.localSteps != 0 {
				t.Fatalf("step %d, outstanding %v, %d steps, %d local", r.step, r.outstanding, r.stepsDone, r.localSteps)
			}
		}},
		{name: "a solo loop's steps are local, and so is its collected step", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 3, func(s *protocol.BarrierSynch) { active(s); s.FromStep, s.LocalIters = 0, 3 })
			if d, _ := collect(t, r); d.End != 0 || r.step != 3 || r.stepsDone != 4 || r.localSteps != 4 {
				t.Fatalf("end %v, step %d, %d steps, %d local", d.End, r.step, r.stepsDone, r.localSteps)
			}
		}},
		{name: "no worker active next converges", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { s.Processed = 1 })
			if d, _ := collect(t, r); d.End != protocol.FinishConverged {
				t.Fatalf("end %v", d.End)
			}
		}},
		{name: "no frontier below the best goal ends early", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { active(s); s.BestGoal, s.MinFrontier = 5, 5 })
			if d, _ := collect(t, r); d.End != protocol.FinishEarly {
				t.Fatalf("end %v", d.End)
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
				if d, _ := collect(t, r); d.End != want {
					t.Fatalf("step %d: end %v, want %v", step, d.End, want)
				}
			}
		}},
		{name: "restart keeps the work done and drops the discarded run", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) {
				active(s)
				s.ScopeSize, s.NewBlocks, s.BestGoal = 4, []int32{3}, 7
			})
			collect(t, r)
			r.release(workers(0), nil, false)
			report(t, r, 0, 1, active) // not collected
			r.restart()
			if r.stepsDone != 1 || r.localSteps != 1 {
				t.Fatalf("%d steps, %d local: the restart lost work done", r.stepsDone, r.localSteps)
			}
			if r.step != -1 || r.outstanding || r.involved != nil || r.reports != nil || r.scopeSizes[0] != 0 || r.everActive[0] ||
				len(r.blocks) != 0 || r.bestGoal != query.NoResult {
				t.Fatalf("restarted round %+v", *r)
			}
		}},
		{name: "a superstep that keeps its workers busy continues implicitly", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			if !slices.Equal(r.peers, []partition.WorkerID{0, 1}) {
				t.Fatalf("peers %v of a two-worker hybrid release", r.peers)
			}
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { active(s); s.SentBatches[1] = 1 })
			report(t, r, 1, 0, active)
			if d, implicit := collect(t, r); !implicit || !maps.Equal(d.Expect, map[partition.WorkerID]int32{1: 1}) {
				t.Fatalf("decision %+v, implicit %v", d, implicit)
			}
		}},
		{name: "a superstep that grows its set is released by the controller", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, active)
			report(t, r, 1, 0, func(s *protocol.BarrierSynch) { active(s); s.SentBatches[2] = 1 })
			if d, implicit := collect(t, r); implicit || !maps.Equal(d.Next, workers(0, 1, 2)) {
				t.Fatalf("decision %+v, implicit %v", d, implicit)
			}
		}},
		{name: "a peer sent only its marker awaits no batch", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, active)
			report(t, r, 1, 0, active)
			if d, implicit := collect(t, r); !implicit || len(d.Expect) != 0 {
				t.Fatalf("decision %+v, implicit %v", d, implicit)
			}
		}},
		{name: "a report on the implicitly released superstep waits for its release", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, active)
			if report(t, r, 0, 1, active) {
				t.Fatal("a superstep is collectable with worker 1's reports out")
			}
			if !report(t, r, 1, 0, active) {
				t.Fatal("step 0 incomplete with both reports in")
			}
			if _, implicit := collect(t, r); !implicit || !r.outstanding {
				t.Fatal("step 0 did not continue implicitly")
			}
			if _, ok := r.due(); ok || len(r.reports[0]) != 1 {
				t.Fatalf("step 1 collectable with worker 1's report out, or worker 0's not queued: %v", r.reports)
			}
			if !report(t, r, 1, 1, active) || r.step != 0 {
				t.Fatalf("step 1 incomplete with both reports in, or collected early (step %d)", r.step)
			}
		}},
		{name: "deferred reports are collected where they all end", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1, 2), nil, false)
			busy := func(s *protocol.BarrierSynch) { active(s); s.SentBatches[(s.W+1)%3] = 1 }
			report(t, r, 0, 3, covering(0, 4, busy))
			report(t, r, 1, 0, covering(0, 1, busy))
			if report(t, r, 2, 3, covering(0, 4, busy)) {
				t.Fatal("collectable with worker 1's reports ending at step 0 alone")
			}
			if !report(t, r, 1, 3, covering(1, 3, busy)) {
				t.Fatal("every report ends at step 3, and it is not collectable")
			}
			if s, _ := r.due(); s != 3 {
				t.Fatalf("due step %d, want 3", s)
			}
			if d, implicit := collect(t, r); !implicit || d.End != 0 || r.step != 3 || r.stepsDone != 4 || r.localSteps != 0 || len(r.taken) != 4 {
				t.Fatalf("decision %+v, implicit %v, step %d, %d steps, %d local, %d reports taken", d, implicit, r.step, r.stepsDone, r.localSteps, len(r.taken))
			}
		}},
		{name: "a run narrows itself to the workers its decision keeps", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 2, covering(0, 3, nil)) // quiescent: nothing pending, nothing sent
			report(t, r, 1, 2, covering(0, 3, active))
			d, implicit := collect(t, r)
			if !implicit || !maps.Equal(d.Next, workers(1)) || !maps.Equal(r.involved, workers(1)) ||
				!slices.Equal(r.peers, []partition.WorkerID{1}) || !r.outstanding {
				t.Fatalf("decision %+v, implicit %v, involved %v, peers %v", d, implicit, r.involved, r.peers)
			}
			if err := r.report(synch(1, 0, 3, nil)); err == nil {
				t.Fatal("worker 0 reported past the step its run left it at")
			}
			report(t, r, 1, 6, covering(3, 4, func(s *protocol.BarrierSynch) { s.LocalIters = 3 }))
			if d, _ := collect(t, r); d.End != protocol.FinishConverged || r.stepsDone != 7 || r.localSteps != 4 {
				t.Fatalf("end %v, %d steps, %d local; want converged after 7 steps, the run of one's 4 local", d.End, r.stepsDone, r.localSteps)
			}
		}},
		{name: "the step a run narrows at is local if one worker computed it and nothing crossed", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, covering(0, 0, nil))
			report(t, r, 1, 0, active)
			if d, implicit := collect(t, r); !implicit || r.localSteps != 1 || r.stepsDone != 1 || !maps.Equal(d.Next, workers(1)) {
				t.Fatalf("decision %+v, implicit %v, %d local of %d steps; want the narrowing step local", d, implicit, r.localSteps, r.stepsDone)
			}
		}},
		{name: "a gap or an overlap in a worker's reports is an error", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			if err := r.report(synch(1, 0, 2, covering(1, 1, nil))); err == nil {
				t.Fatal("a report from step 1 was taken, step 0 unreported")
			}
			report(t, r, 0, 2, covering(0, 3, active))
			if err := r.report(synch(1, 0, 4, covering(2, 2, active))); err == nil {
				t.Fatal("a report of steps 2..4 was taken after one of 0..2")
			}
			if err := r.report(synch(1, 0, 2, active)); err == nil {
				t.Fatal("step 2 was taken twice")
			}
			if err := r.report(synch(1, 0, 5, covering(4, 2, active))); err == nil {
				t.Fatal("a report from step 4 was taken, step 3 unreported")
			}
			if len(r.reports[0]) != 1 {
				t.Fatalf("refused reports queued: %v", r.reports[0])
			}
		}},
		{name: "a report past a step the decision stops at is an error", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, nil)
			report(t, r, 0, 1, nil)
			report(t, r, 1, 0, nil)
			if _, _, err := r.collect(0); err == nil {
				t.Fatal("the query converged at step 0 with worker 0's report on step 1 queued")
			}
		}},
		{name: "limited and global never continue implicitly", mode: SyncLimited, run: func(t *testing.T, r *round) {
			for _, mode := range []SyncMode{SyncLimited, SyncGlobal} {
				r.mode = mode
				r.release(workers(0, 1, 2), nil, false)
				for w := range partition.WorkerID(3) {
					report(t, r, w, r.step+1, active)
				}
				if d, implicit := collect(t, r); implicit || r.peers != nil || d.End != 0 {
					t.Fatalf("%s: decision %+v, implicit %v, peers %v", mode, d, implicit, r.peers)
				}
			}
		}},
		{name: "the result counts the scope, its workers and its blocks", mode: SyncHybrid, run: func(t *testing.T, r *round) {
			r.release(workers(0, 1), nil, false)
			report(t, r, 0, 0, func(s *protocol.BarrierSynch) { s.ScopeSize, s.NewBlocks, s.BestGoal = 3, []int32{5, 2}, 9 })
			report(t, r, 1, 0, func(s *protocol.BarrierSynch) { s.NewBlocks = []int32{2} })
			collect(t, r)
			res := r.result(1, 4, protocol.FinishConverged, 0, nil)
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
// over the sim's links. No worker runs. The controller runs in the limited
// mode, which sends every release: in the hybrid one these workers would
// release every superstep after the first themselves.
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
			c, err := New(Config{K: k, Graph: g, Owner: owner, Mode: SyncLimited, HeartbeatEvery: -1, Clock: func() time.Time { return now }},
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
			// round steps every involved worker's report on the released
			// superstep and drops what the controller sent.
			round := func() {
				step := c.queries[1].step + 1
				for w := range c.queries[1].involved {
					reports[w].FromStep, reports[w].Step = step, step
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

// TestImplicitReleaseSavesBarrierReady counts the BarrierReady messages a
// PageRank over K4, whose vertices alternate between two workers, takes on
// the sim: superstep 0 runs on the source's worker alone, and the next
// steps supersteps on both. In the hybrid mode the workers release every
// superstep after the first of those themselves, so the controller sends
// one BarrierReady for superstep 0 and one per worker for superstep 1; the
// limited mode sends one per worker and superstep, and the global mode one
// per worker and superstep, superstep 0 included.
func TestImplicitReleaseSavesBarrierReady(t *testing.T) {
	const steps = 6
	b := graph.NewBuilder(4)
	for u := range graph.VertexID(4) {
		for v := u + 1; v < 4; v++ {
			b.AddBiEdge(u, v, 1)
		}
	}
	g := b.MustBuild()
	for _, tc := range []struct {
		mode SyncMode
		want int
	}{{SyncHybrid, 1 + 2}, {SyncLimited, 1 + 2*steps}, {SyncGlobal, 2 + 2*steps}} {
		for seed := uint64(1); seed <= 5; seed++ {
			s, err := newSim(rand.New(rand.NewPCG(seed, 0)), g, partition.Assignment{0, 1, 0, 1}, 2,
				func(cfg *Config) { cfg.Mode = tc.mode })
			if err != nil {
				t.Fatal(err)
			}
			readies := 0
			s.delivered = func(_ partition.WorkerID, m protocol.Message) error {
				if _, ok := m.(*protocol.BarrierReady); ok {
					readies++
				}
				return nil
			}
			ch := make(chan Result, 1)
			s.c.onSchedule(scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindPageRank, Source: 0, Target: graph.NilVertex,
				MaxIters: 1 + steps, Epsilon: 1e-3}, ch: ch})
			if err := s.run(); err != nil {
				t.Fatalf("%s seed %d: %v", tc.mode, seed, err)
			}
			if res := <-ch; res.Reason != protocol.FinishMaxIters || res.Supersteps != 1+steps || readies != tc.want {
				t.Fatalf("%s seed %d: %v after %d supersteps with %d BarrierReady, want %v after %d with %d",
					tc.mode, seed, res.Reason, res.Supersteps, readies, protocol.FinishMaxIters, 1+steps, tc.want)
			}
		}
	}
}

// TestRunReportsAtEdges counts the BarrierSynch reports a PageRank over K4,
// whose vertices alternate between two workers, sends the controller on the
// sim: superstep 0 runs on the source's worker alone, and the next eight
// on both, a run over every worker. The program is not monotone and sums
// stay active, so neither worker's summary leaves an end possible before
// the last superstep MaxIters allows: each reports the run once, at its
// end, covering all eight. A report a superstep would send sixteen.
func TestRunReportsAtEdges(t *testing.T) {
	const steps = 8
	b := graph.NewBuilder(4)
	for u := range graph.VertexID(4) {
		for v := u + 1; v < 4; v++ {
			b.AddBiEdge(u, v, 1)
		}
	}
	g := b.MustBuild()
	for seed := uint64(1); seed <= 5; seed++ {
		s, err := newSim(rand.New(rand.NewPCG(seed, 0)), g, partition.Assignment{0, 1, 0, 1}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var run []*protocol.BarrierSynch // the reports on supersteps 1 to steps
		s.observe = func(partition.WorkerID) error {
			for _, m := range s.net.sent {
				if m, ok := m.(*protocol.BarrierSynch); ok && m.Step >= 1 {
					run = append(run, m)
				}
			}
			return nil
		}
		ch := make(chan Result, 1)
		s.c.onSchedule(scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindPageRank, Source: 0, Target: graph.NilVertex,
			MaxIters: 1 + steps, Epsilon: 1e-3}, ch: ch})
		if err := s.run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res := <-ch; res.Reason != protocol.FinishMaxIters || res.Supersteps != 1+steps {
			t.Fatalf("seed %d: %v after %d supersteps, want %v after %d", seed, res.Reason, res.Supersteps, protocol.FinishMaxIters, 1+steps)
		}
		if len(run) != 2 || run[0].W == run[1].W {
			t.Fatalf("seed %d: %d reports on the run, want one per worker", seed, len(run))
		}
		for _, m := range run {
			if m.FromStep != 1 || m.Step != steps || m.LocalIters != 0 {
				t.Fatalf("seed %d: worker %d reported steps %d..%d with %d local iterations, want 1..%d with none",
					seed, m.W, m.FromStep, m.Step, m.LocalIters, steps)
			}
		}
	}
}

// TestMovedGoalQueryEndsEarly: an SSSP whose goal worker 0 found (the
// target, at 10 over one heavy edge) while its frontier still walks a
// chain of unit edges has its scope moved to worker 1 by a global barrier.
// Worker 1 never found the goal itself, but every release carries the
// controller's best goal, so its solo loop stops once the frontier reaches
// 10 and the query ends early there, not at the chain's end.
func TestMovedGoalQueryEndsEarly(t *testing.T) {
	const n = 21 // 0→1 weighs 10; 0→2→3→…→20 weigh 1 each
	b := graph.NewBuilder(n)
	b.AddEdge(0, 1, 10)
	b.AddEdge(0, 2, 1)
	for v := graph.VertexID(2); v < n-1; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g := b.MustBuild()
	owner := make(partition.Assignment, n)
	for v := 4; v < n; v++ {
		owner[v] = 1 // the chain leaves worker 0 at 3→4
	}
	for seed := uint64(1); seed <= 5; seed++ {
		s, err := newSim(rand.New(rand.NewPCG(seed, 0)), g, owner, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Once worker 0's report of the loop that found the goal is on its
		// way, a barrier moves worker 0's scope to worker 1.
		forced := false
		s.turn = func(int) {
			if l := s.net.links[int(protocol.WorkerNode(0))*s.net.n]; !forced && len(l) > 0 {
				if _, ok := l[0].Msg.(*protocol.BarrierSynch); ok {
					forced = true
					s.c.adapt.trigger(minWindowQueries, 0, 0)
					s.c.onQcutDone(qcut.Result{Moves: []qcut.Move{{Q: 1, From: 0, To: 1}}})
				}
			}
		}
		var last *protocol.BarrierSynch
		s.observe = func(w partition.WorkerID) error {
			for _, m := range s.net.sent {
				if m, ok := m.(*protocol.BarrierSynch); ok {
					last = m
				}
			}
			return nil
		}
		ch := make(chan Result, 1)
		s.c.onSchedule(scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindSSSP, Source: 0, Target: 1}, ch: ch})
		if err := s.run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := <-ch
		if s.c.RepartitionEpoch() != 1 || res.Reason != protocol.FinishEarly || res.Value != 10 {
			t.Fatalf("seed %d: %d barriers, result %+v; want one barrier and an early end at 10", seed, s.c.RepartitionEpoch(), res)
		}
		// The loop's last superstep computes vertex 10 at 9, which sends 10.
		if last.W != 1 || last.LocalIters == 0 || last.Step != 9 || last.MinFrontier != 10 || res.Touched != 11 {
			t.Fatalf("seed %d: last report %+v, %d vertices touched; want worker 1's solo loop to stop after step 9, 11 touched",
				seed, *last, res.Touched)
		}
	}
}
