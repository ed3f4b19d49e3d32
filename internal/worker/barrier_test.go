package worker

import (
	"testing"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// TestWorkerTransitions drives the worker's half of the hybrid barrier
// through its transitions alone: no Worker, no connection, no clock. Its
// machines are worker 0 of three, where a run of workers 0 and 1 may
// widen and so reports every superstep, or worker 0 of two, where the
// same run spans every worker and defers what it may.
func TestWorkerTransitions(t *testing.T) {
	batch := func(q query.ID, step int32) *protocol.VertexBatch {
		return &protocol.VertexBatch{Q: q, Step: step, From: 1}
	}
	// runs says whether run hands out superstep step of query q next.
	runs := func(b *barrier, q query.ID, step int32) bool {
		got, s, ok := b.run()
		return ok && got == q && s == step
	}
	// reports closes the superstep of query 1 that b ran with res and says
	// whether b reports it.
	reports := func(b *barrier, res stepResult) bool { return b.stepped(1, res).due }
	// covers checks that rep is due and covers supersteps from to step.
	covers := func(t *testing.T, rep report, from, step int32) {
		t.Helper()
		if !rep.due || rep.from != from || rep.step != step {
			t.Fatalf("report %+v, want one of steps %d..%d", rep, from, step)
		}
	}
	// solo is a machine running query 1's release of superstep 0 to worker
	// 0 alone: a run of one, the solo loop.
	solo := func(t *testing.T, monotone bool, maxIters int) *barrier {
		t.Helper()
		b := newBarrier(0, 3)
		b.execute(1, protocol.Rules{Monotone: monotone, MaxIters: maxIters})
		if err := b.ready(1, release{bestGoal: query.NoResult, peers: []partition.WorkerID{0}}); err != nil || !runs(&b, 1, 0) {
			t.Fatalf("the solo release of step 0 did not run: %v", err)
		}
		return &b
	}
	// step is a superstep's result: batches sent to worker 1, vertices
	// active next, the frontier's bound and the best goal found.
	step := func(sent, active int32, frontier, goal float64) stepResult {
		return stepResult{sent: []int32{0, sent}, nActiveNext: active, minFrontier: frontier, bestGoal: goal}
	}
	// loopEnds checks that a solo loop reports after res, having looped on
	// after the supersteps before.
	loopEnds := func(t *testing.T, b *barrier, res stepResult) {
		t.Helper()
		if !reports(b, res) || b.queries[1].state != idle {
			t.Fatalf("the solo loop went on after %+v", res)
		}
		if _, _, ok := b.run(); ok {
			t.Fatal("a superstep is queued after the report")
		}
	}
	// multi is the implicitly continuable release of superstep step over
	// workers 0 and 1; b is worker 0.
	multi := func(step, expect int32) release {
		return release{step: step, expect: expect, bestGoal: query.NoResult, peers: []partition.WorkerID{0, 1}}
	}
	// busy is a superstep of worker 0 that keeps a vertex active and sends
	// worker 1 a batch.
	busy := stepResult{sent: []int32{0, 1}, nActiveNext: 1, minFrontier: 1, bestGoal: query.NoResult}
	// summary is worker 1's summary of superstep step on its last batch to
	// worker 0, with entries unless it is a marker; sent is by destination.
	summary := func(step int32, marker bool, sent ...int32) *protocol.VertexBatch {
		m := &protocol.VertexBatch{Q: 1, Step: step, From: 1, Summary: &protocol.StepSummary{
			NActiveNext: 1, MinFrontier: 1, BestGoal: query.NoResult, SentBatches: sent}}
		if !marker {
			m.Entries = []protocol.VertexMsg{{To: 0, Val: 1}}
		}
		return m
	}
	// spanning is worker 0 of two after it ran superstep 1 of a multi
	// release under rules with res and deferred its report, awaiting worker
	// 1's summary.
	spanning := func(t *testing.T, rules protocol.Rules, res stepResult) *barrier {
		t.Helper()
		b := newBarrier(0, 2)
		b.execute(1, rules)
		b.ready(1, multi(1, 0))
		if !runs(&b, 1, 1) || reports(&b, res) || b.queries[1].state != deciding {
			t.Fatal("superstep 1 of the run over every worker did not defer its report and await the decision")
		}
		return &b
	}
	// deciding is worker 0 of three after it ran superstep 1 of a multi
	// release and reported, awaiting worker 1's summary.
	deciding := func(t *testing.T) *barrier {
		t.Helper()
		b := newBarrier(0, 3)
		b.execute(1, protocol.Rules{})
		b.ready(1, multi(1, 0))
		if !runs(&b, 1, 1) || !reports(&b, busy) || b.queries[1].state != deciding {
			t.Fatal("superstep 1 of the multi release did not report and await the decision")
		}
		return &b
	}
	// quiet is a superstep that leaves nothing active and sends nothing.
	quiet := step(0, 0, query.NoResult, query.NoResult)
	// marker is worker 1's summary of superstep step on a marker, with
	// active vertices pending next and batches sent by destination.
	marker := func(step, active int32, sent ...int32) *protocol.VertexBatch {
		return &protocol.VertexBatch{Q: 1, Step: step, From: 1, Summary: &protocol.StepSummary{
			NActiveNext: active, MinFrontier: 1, BestGoal: query.NoResult, SentBatches: sent}}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"peers that keep each other busy release the next superstep themselves", func(t *testing.T) {
			b := deciding(t)
			if deliver, rep, err := b.batch(summary(1, false, 1, 0), false); !deliver || rep.due || err != nil {
				t.Fatalf("the summary's entries: deliver %v, report %+v, %v", deliver, rep, err)
			}
			if !runs(b, 1, 2) {
				t.Fatal("the decision did not release superstep 2")
			}
			if rel := b.queries[1].rel; rel.step != 2 || rel.expect != 1 || len(rel.peers) != 2 {
				t.Fatalf("implicit release %+v, want step 2 expecting 1 batch over both peers", rel)
			}
		}},
		{"a summary that grows the involved set leaves the release to the controller", func(t *testing.T) {
			b := deciding(t)
			b.batch(summary(1, false, 1, 0, 1), false) // worker 1 also sent worker 2 a batch
			if _, _, ok := b.run(); ok || b.queries[1].state != idle {
				t.Fatal("the workers went on without worker 2")
			}
			if err := b.ready(1, release{step: 2, expect: 1, bestGoal: query.NoResult}); err != nil || !runs(b, 1, 2) {
				t.Fatalf("the controller's release of superstep 2 did not run: %v", err)
			}
		}},
		{"a release that overtakes the last summary replaces the pending decision", func(t *testing.T) {
			b := deciding(t)
			if err := b.ready(1, release{step: 2, expect: 1, bestGoal: query.NoResult}); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := b.run(); ok {
				t.Fatal("superstep 2 ran before worker 1's batch")
			}
			b.batch(summary(1, false, 1, 0), false)
			if !runs(b, 1, 2) || b.queries[1].rel.peers != nil {
				t.Fatalf("superstep 2 did not run under the controller's release: %+v", b.queries[1].rel)
			}
			if _, _, ok := b.run(); ok {
				t.Fatal("superstep 2 was released twice")
			}
		}},
		{"a marker whose consumer the controller released and ran is dropped", func(t *testing.T) {
			b := deciding(t)
			b.ready(1, release{step: 2, bestGoal: query.NoResult})
			runs(b, 1, 2)
			if deliver, rep, err := b.batch(summary(1, true, 0, 0), false); deliver || rep.due || err != nil {
				t.Fatalf("the late marker: deliver %v, report %+v, %v", deliver, rep, err)
			}
			if _, _, err := b.batch(summary(1, false, 0, 0), false); err == nil {
				t.Fatal("a late batch with entries was taken")
			}
		}},
		{"a summary that overtakes its own superstep here waits for it", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{})
			b.ready(1, multi(1, 1)) // held for a batch of superstep 0
			if deliver, _, err := b.batch(summary(1, true, 0, 0), false); deliver || err != nil {
				t.Fatalf("the early marker: deliver %v, %v", deliver, err)
			}
			if _, _, ok := b.run(); ok {
				t.Fatal("the marker counted for the release")
			}
			b.batch(batch(1, 0), false)
			if !runs(&b, 1, 1) || !reports(&b, busy) || !runs(&b, 1, 2) {
				t.Fatal("the early summary did not decide superstep 1")
			}
		}},
		{"a run over every worker defers a busy superstep's report while the same peers continue", func(t *testing.T) {
			b := spanning(t, protocol.Rules{}, busy)
			if deliver, rep, err := b.batch(summary(1, false, 1, 0), false); !deliver || rep.due || err != nil {
				t.Fatalf("the summary's entries: deliver %v, report %+v, %v", deliver, rep, err)
			}
			if !runs(b, 1, 2) || b.queries[1].from != 1 {
				t.Fatalf("superstep 2 did not run with step 1's report deferred: %+v", b.queries[1])
			}
		}},
		{"a peer's summary that narrows the run makes the deferred report due", func(t *testing.T) {
			b := spanning(t, protocol.Rules{}, busy)
			b.batch(summary(1, false, 1, 0), false)
			runs(b, 1, 2)
			if reports(b, step(0, 1, 1, query.NoResult)) {
				t.Fatal("superstep 2 reported, with nothing making it due")
			}
			_, rep, err := b.batch(marker(2, 0), false) // worker 1 is quiescent: only worker 0 goes on
			if err != nil {
				t.Fatal(err)
			}
			covers(t, rep, 1, 2)
			if rep.localIters != 0 || rep.sum.NActiveNext != 1 {
				t.Fatalf("report %+v, want no local iteration and step 2's summary", rep)
			}
			if rel := b.queries[1].rel; !runs(b, 1, 3) || rel.step != 3 || len(rel.peers) != 1 || rel.peers[0] != 0 {
				t.Fatalf("the narrowed release %+v did not run superstep 3 as a run of one", rel)
			}
			covers(t, b.stepped(1, quiet), 3, 3)
		}},
		{"this worker's own summary, the last in, makes the report due", func(t *testing.T) {
			b := newBarrier(0, 2)
			b.execute(1, protocol.Rules{})
			b.ready(1, multi(1, 0))
			b.batch(marker(1, 0), false) // worker 1's summary overtakes superstep 1 here
			runs(&b, 1, 1)
			covers(t, b.stepped(1, step(0, 1, 1, query.NoResult)), 1, 1)
			if !runs(&b, 1, 2) || len(b.queries[1].rel.peers) != 1 {
				t.Fatal("the narrowed run did not go on with worker 0 alone")
			}
		}},
		{"the monotone bound a peer's goal sets ends the run and makes the report due", func(t *testing.T) {
			b := spanning(t, protocol.Rules{Monotone: true}, step(0, 1, 4, query.NoResult))
			m := marker(1, 1)
			m.Summary.BestGoal, m.Summary.MinFrontier = 3, 5
			_, rep, _ := b.batch(m, false)
			covers(t, rep, 1, 1)
			if b.queries[1].state != idle {
				t.Fatal("the run went on past the bound")
			}
		}},
		{"a summary that leaves an end possible is reported at once", func(t *testing.T) {
			for _, c := range []struct {
				name  string
				rules protocol.Rules
				res   stepResult
				due   bool
			}{
				{"quiescent", protocol.Rules{}, quiet, true},
				{"the next superstep reaches MaxIters", protocol.Rules{MaxIters: 2}, busy, true},
				{"before MaxIters", protocol.Rules{MaxIters: 3}, busy, false},
				{"a goal of a monotone program", protocol.Rules{Monotone: true}, step(1, 1, 4, 9), true},
				{"a goal of another program", protocol.Rules{}, step(1, 1, 4, 9), false},
			} {
				b := newBarrier(0, 2)
				b.execute(1, c.rules)
				b.ready(1, multi(1, 0))
				runs(&b, 1, 1)
				if rep := b.stepped(1, c.res); rep.due != c.due || c.due && (rep.from != 1 || rep.step != 1) {
					t.Errorf("%s: report %+v, want due %v", c.name, rep, c.due)
				}
			}
		}},
		{"a worker the decision leaves out goes idle and reports nothing more", func(t *testing.T) {
			b := newBarrier(0, 2)
			b.execute(1, protocol.Rules{})
			b.ready(1, multi(1, 0))
			runs(&b, 1, 1)
			covers(t, b.stepped(1, quiet), 1, 1)
			if _, rep, _ := b.batch(marker(1, 1), false); rep.due || b.queries[1].state != idle {
				t.Fatalf("report %+v, state %d after worker 1 went on alone", rep, b.queries[1].state)
			}
			if _, _, ok := b.run(); ok {
				t.Fatal("a superstep is queued for the left-out worker")
			}
		}},
		{"a release that finds a report owed is a protocol error", func(t *testing.T) {
			b := spanning(t, protocol.Rules{}, busy)
			if err := b.ready(1, release{step: 2, bestGoal: query.NoResult}); err == nil {
				t.Fatal("a release was taken with step 1 unreported")
			}
		}},
		{"a release is held until the last expected batch", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{})
			if err := b.ready(1, release{step: 3, expect: 2}); err != nil {
				t.Fatal(err)
			}
			for i := range 2 {
				if _, _, ok := b.run(); ok {
					t.Fatalf("step 3 ran with %d of 2 batches", i)
				}
				if deliver, _, err := b.batch(batch(1, 2), false); !deliver || err != nil {
					t.Fatalf("batch %d: deliver %v, %v", i+1, deliver, err)
				}
			}
			if !runs(&b, 1, 3) || len(b.queries[1].recvBatches) != 0 {
				t.Fatalf("step 3 did not run with both batches in, or left counts %v", b.queries[1].recvBatches)
			}
		}},
		{"a drained release is not held", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{})
			b.ready(1, release{step: 3, expect: 2, drained: true})
			if !runs(&b, 1, 3) {
				t.Fatal("the drained release waited for batches")
			}
		}},
		{"a batch before execute is buffered and counted at execute", func(t *testing.T) {
			b := newBarrier(0, 3)
			m := batch(1, 0)
			if deliver, _, err := b.batch(m, false); deliver || err != nil || len(b.early[1]) != 1 {
				t.Fatalf("deliver %v, %v, %d buffered", deliver, err, len(b.early[1]))
			}
			if replay := b.execute(1, protocol.Rules{}); len(replay) != 1 || replay[0] != m || len(b.early) != 0 {
				t.Fatalf("execute replayed %v, left %v buffered", replay, b.early)
			}
			b.ready(1, release{step: 1, expect: 1})
			if !runs(&b, 1, 1) {
				t.Fatal("the buffered batch did not count for the release")
			}
		}},
		{"a batch after finish is dropped", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{})
			b.finish(1)
			if deliver, _, err := b.batch(batch(1, 0), true); deliver || err != nil || len(b.early) != 0 || len(b.queries) != 0 {
				t.Fatalf("deliver %v, %v, early %v", deliver, err, b.early)
			}
		}},
		{"a stale-generation batch is dropped", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.reset(2)
			b.execute(1, protocol.Rules{})
			b.ready(1, release{step: 1, expect: 1})
			for _, q := range []query.ID{1, 2} { // live, and unknown
				if deliver, _, err := b.batch(&protocol.VertexBatch{Q: q, Gen: 1}, false); deliver || err != nil || len(b.early) != 0 {
					t.Fatalf("query %d: deliver %v, %v, early %v", q, deliver, err, b.early)
				}
			}
			if _, _, ok := b.run(); ok {
				t.Fatal("a stale batch counted for the release")
			}
		}},
		{"a batch whose consumer ran, and a second release, are errors", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{})
			b.ready(1, release{step: 1, expect: 1})
			b.batch(batch(1, 0), false)
			if err := b.ready(1, release{step: 2}); err == nil {
				t.Fatal("a release with step 1's outstanding was taken")
			}
			if _, _, err := b.batch(batch(1, 0), false); err == nil {
				t.Fatal("a batch of step 0 was taken with step 1 running")
			}
			runs(&b, 1, 1)
			b.stepped(1, step(0, 0, query.NoResult, query.NoResult))
			if _, _, err := b.batch(batch(1, 0), false); err == nil {
				t.Fatal("a batch of step 0 was taken after step 1 ran")
			}
			if deliver, _, err := b.batch(batch(1, 1), false); !deliver || err != nil {
				t.Fatalf("a batch of step 1 for step 2: deliver %v, %v", deliver, err)
			}
			if err := b.ready(7, release{}); err == nil {
				t.Fatal("a release of an unknown query was taken")
			}
		}},
		{"a solo loop goes on until a rule ends it", func(t *testing.T) {
			b := solo(t, true, 0)
			for s := int32(1); s <= 3; s++ {
				if reports(b, step(0, 2, 4, 9)) || !runs(b, 1, s) {
					t.Fatalf("the loop did not go on to step %d", s)
				}
			}
			rep := b.stepped(1, step(0, 0, query.NoResult, query.NoResult))
			if q := b.queries[1]; !rep.due || q.state != idle || rep.from != 0 || rep.localIters != 3 || q.step != 4 || q.bestGoal != 9 {
				t.Fatalf("report %+v, next step %d, best goal %v; want a report from 0 with 3 local iterations, 4 and 9", rep, q.step, q.bestGoal)
			}
			if _, _, ok := b.run(); ok {
				t.Fatal("a superstep is queued after the report")
			}
		}},
		{"a non-solo release reports after one superstep", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{})
			b.ready(1, release{})
			runs(&b, 1, 0)
			loopEnds(t, &b, step(0, 2, 4, 9))
		}},
		{"a batch sent ends a solo loop", func(t *testing.T) {
			loopEnds(t, solo(t, false, 0), step(1, 2, 4, 9))
		}},
		{"no active vertex ends a solo loop", func(t *testing.T) {
			loopEnds(t, solo(t, false, 0), step(0, 0, 4, 9))
		}},
		{"the monotone bound ends a solo loop", func(t *testing.T) {
			if b := solo(t, false, 0); reports(b, step(0, 2, 9, 9)) {
				t.Fatal("the bound ended a loop of a program that is not monotone")
			}
			b := solo(t, true, 0)
			b.stepped(1, step(0, 2, 4, 9))
			runs(b, 1, 1)
			loopEnds(t, b, step(0, 2, 9, query.NoResult)) // the bound holds the goal found before
		}},
		{"the release's best goal bounds a solo loop", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{Monotone: true})
			b.ready(1, release{bestGoal: 5, peers: []partition.WorkerID{0}}) // a goal another worker found
			runs(&b, 1, 0)
			loopEnds(t, &b, step(0, 2, 6, query.NoResult))
		}},
		{"MaxIters ends a solo loop", func(t *testing.T) {
			b := solo(t, false, 2)
			if reports(b, step(0, 2, 4, 9)) || !runs(b, 1, 1) {
				t.Fatal("the loop stopped after the first of 2 iterations")
			}
			loopEnds(t, b, step(0, 2, 4, 9))
		}},
		{"a finished query's queued superstep is skipped", func(t *testing.T) {
			b := solo(t, false, 0)
			b.stepped(1, step(0, 2, 4, 9))
			b.finish(1)
			if _, _, ok := b.run(); ok {
				t.Fatal("a finished query's superstep ran")
			}
		}},
		{"a release and its batch allocate nothing", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.execute(1, protocol.Rules{})
			m, s, res := batch(1, 0), int32(0), step(1, 1, 4, 9)
			cycle := func() {
				m.Step, s = s, s+1
				b.batch(m, false)
				b.ready(1, release{step: s, expect: 1})
				runs(&b, 1, s)
				b.stepped(1, res)
			}
			cycle()
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Fatalf("%v allocations a release", n)
			}
		}},
		{"a GlobalStop that finds a superstep queued is a protocol error", func(t *testing.T) {
			b := solo(t, false, 0)
			reports(b, step(0, 2, 4, 9)) // the run goes on: step 1 is queued
			if err := b.stop(1, 1); err == nil || b.wait != nil {
				t.Fatalf("GlobalStop with a superstep queued: %v, awaiting %+v", err, b.wait)
			}
		}},
		{"a StopAck waits for every peer's marker, early ones included", func(t *testing.T) {
			b := newBarrier(0, 3)
			if _, due := b.marker(1); due {
				t.Fatal("a marker before the GlobalStop acked")
			}
			b.stop(1, 2)
			if _, due := b.ack(); due {
				t.Fatal("acked with 1 of 2 markers")
			}
			if epoch, due := b.marker(1); !due || epoch != 1 {
				t.Fatalf("the last marker: ack %v of epoch %d", due, epoch)
			}
			if _, due := b.ack(); due || b.wait != nil {
				t.Fatal("the StopAck is due twice")
			}
			b = newBarrier(0, 3)
			b.marker(1)
			b.stop(1, 1)
			if epoch, due := b.ack(); !due || epoch != 1 {
				t.Fatal("the StopAck did not count the marker that came before the GlobalStop")
			}
		}},
		{"markers at or below the acked epoch are spent", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.marker(3) // a peer ahead, from the next barrier
			b.stop(2, 1)
			b.marker(1) // a dead peer's, late
			b.marker(2)
			if len(b.markers) != 1 || b.markers[3] != 1 {
				t.Fatalf("markers %v after the ack of epoch 2, want epoch 3's alone", b.markers)
			}
			b.marker(2) // late again
			b.stop(3, 2)
			if _, due := b.ack(); due {
				t.Fatal("a marker of epoch 2 counted for epoch 3")
			}
			if epoch, due := b.marker(3); !due || epoch != 3 || len(b.markers) != 0 {
				t.Fatalf("ack %v of epoch %d, markers %v", due, epoch, b.markers)
			}
		}},
		{"start ends the barrier and its moves", func(t *testing.T) {
			b := newBarrier(0, 3)
			b.stop(1, 0)
			b.arrive(5)
			b.start()
			if b.arrived != nil {
				t.Fatalf("arrived %v after GlobalStart", b.arrived)
			}
		}},
		{"reset clears everything", func(t *testing.T) {
			b := solo(t, false, 0)
			if err := b.stop(1, 1); err != nil { // a recovery may abort a global barrier
				t.Fatal(err)
			}
			b.stepped(1, step(0, 2, 4, 9)) // queued
			b.execute(2, protocol.Rules{})
			b.ready(2, release{step: 1, expect: 1}) // held
			b.batch(batch(3, 0), false)             // buffered
			b.marker(2)
			b.arrive(graph.VertexID(4))
			b.reset(5)
			if b.gen != 5 || len(b.queries) != 0 || len(b.early) != 0 || len(b.runnable) != 0 ||
				b.wait != nil || len(b.markers) != 0 || b.arrived != nil {
				t.Fatalf("after reset: %+v", b)
			}
			if _, due := b.marker(1); due {
				t.Fatal("the aborted barrier's StopAck survived the reset")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestRunOfOneAllocs checks that a superstep a run of one continues, from
// run to the decision in stepped, allocates nothing: the decision's maps
// and the step's summaries are reused.
func TestRunOfOneAllocs(t *testing.T) {
	b := newBarrier(0, 3)
	b.execute(1, protocol.Rules{Monotone: true})
	b.ready(1, release{bestGoal: query.NoResult, peers: []partition.WorkerID{0}})
	res := stepResult{sent: make([]int32, 2), nActiveNext: 1, minFrontier: 4, bestGoal: 9}
	superstep := func() {
		if q, _, ok := b.run(); !ok || q != 1 {
			t.Fatal("the run of one queued no superstep")
		}
		if b.stepped(1, res).due {
			t.Fatal("the run of one stopped")
		}
	}
	superstep()
	if n := testing.AllocsPerRun(100, superstep); n != 0 {
		t.Fatalf("%v allocations a superstep, want 0", n)
	}
}
