package worker

import (
	"testing"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// TestWorkerTransitions drives the worker's half of the hybrid barrier
// through its transitions alone: no Worker, no connection, no clock.
func TestWorkerTransitions(t *testing.T) {
	batch := func(q query.ID, step int32) *protocol.VertexBatch {
		return &protocol.VertexBatch{Q: q, Step: step, From: 1}
	}
	// runs says whether run hands out superstep step of query q next.
	runs := func(b *barrier, q query.ID, step int32) bool {
		got, s, ok := b.run()
		return ok && got == q && s == step
	}
	// solo is a machine running query 1's solo release of superstep 0.
	solo := func(t *testing.T, monotone bool, maxIters int) *barrier {
		t.Helper()
		b := newBarrier()
		b.execute(1, monotone, maxIters)
		if err := b.ready(1, release{solo: true}); err != nil || !runs(&b, 1, 0) {
			t.Fatalf("the solo release of step 0 did not run: %v", err)
		}
		return &b
	}
	// step is a superstep's result: batches sent, vertices active next, the
	// frontier's bound and the best goal found.
	step := func(sent, active int32, frontier, goal float64) stepResult {
		return stepResult{sentTotal: sent, nActiveNext: active, minFrontier: frontier, bestGoal: goal}
	}
	// loopEnds checks that a solo loop reports after res, having looped on
	// after the supersteps before.
	loopEnds := func(t *testing.T, b *barrier, res stepResult) {
		t.Helper()
		if !b.stepped(1, res) || b.queries[1].state != idle {
			t.Fatalf("the solo loop went on after %+v", res)
		}
		if _, _, ok := b.run(); ok {
			t.Fatal("a superstep is queued after the report")
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"a release is held until the last expected batch", func(t *testing.T) {
			b := newBarrier()
			b.execute(1, false, 0)
			if err := b.ready(1, release{step: 3, expect: 2}); err != nil {
				t.Fatal(err)
			}
			for i := range 2 {
				if _, _, ok := b.run(); ok {
					t.Fatalf("step 3 ran with %d of 2 batches", i)
				}
				if deliver, err := b.batch(batch(1, 2), false); !deliver || err != nil {
					t.Fatalf("batch %d: deliver %v, %v", i+1, deliver, err)
				}
			}
			if !runs(&b, 1, 3) || len(b.queries[1].recvBatches) != 0 {
				t.Fatalf("step 3 did not run with both batches in, or left counts %v", b.queries[1].recvBatches)
			}
		}},
		{"a drained release is not held", func(t *testing.T) {
			b := newBarrier()
			b.execute(1, false, 0)
			b.ready(1, release{step: 3, expect: 2, drained: true})
			if !runs(&b, 1, 3) {
				t.Fatal("the drained release waited for batches")
			}
		}},
		{"a batch before execute is buffered and counted at execute", func(t *testing.T) {
			b := newBarrier()
			m := batch(1, 0)
			if deliver, err := b.batch(m, false); deliver || err != nil || len(b.early[1]) != 1 {
				t.Fatalf("deliver %v, %v, %d buffered", deliver, err, len(b.early[1]))
			}
			if replay := b.execute(1, false, 0); len(replay) != 1 || replay[0] != m || len(b.early) != 0 {
				t.Fatalf("execute replayed %v, left %v buffered", replay, b.early)
			}
			b.ready(1, release{step: 1, expect: 1})
			if !runs(&b, 1, 1) {
				t.Fatal("the buffered batch did not count for the release")
			}
		}},
		{"a batch after finish is dropped", func(t *testing.T) {
			b := newBarrier()
			b.execute(1, false, 0)
			b.finish(1)
			if deliver, err := b.batch(batch(1, 0), true); deliver || err != nil || len(b.early) != 0 || len(b.queries) != 0 {
				t.Fatalf("deliver %v, %v, early %v", deliver, err, b.early)
			}
		}},
		{"a stale-generation batch is dropped", func(t *testing.T) {
			b := newBarrier()
			b.reset(2)
			b.execute(1, false, 0)
			b.ready(1, release{step: 1, expect: 1})
			for _, q := range []query.ID{1, 2} { // live, and unknown
				if deliver, err := b.batch(&protocol.VertexBatch{Q: q, Gen: 1}, false); deliver || err != nil || len(b.early) != 0 {
					t.Fatalf("query %d: deliver %v, %v, early %v", q, deliver, err, b.early)
				}
			}
			if _, _, ok := b.run(); ok {
				t.Fatal("a stale batch counted for the release")
			}
		}},
		{"a batch whose consumer ran, and a second release, are errors", func(t *testing.T) {
			b := newBarrier()
			b.execute(1, false, 0)
			b.ready(1, release{step: 1, expect: 1})
			b.batch(batch(1, 0), false)
			if err := b.ready(1, release{step: 2}); err == nil {
				t.Fatal("a release with step 1's outstanding was taken")
			}
			if _, err := b.batch(batch(1, 0), false); err == nil {
				t.Fatal("a batch of step 0 was taken with step 1 running")
			}
			runs(&b, 1, 1)
			b.stepped(1, step(0, 0, query.NoResult, query.NoResult))
			if _, err := b.batch(batch(1, 0), false); err == nil {
				t.Fatal("a batch of step 0 was taken after step 1 ran")
			}
			if deliver, err := b.batch(batch(1, 1), false); !deliver || err != nil {
				t.Fatalf("a batch of step 1 for step 2: deliver %v, %v", deliver, err)
			}
			if err := b.ready(7, release{}); err == nil {
				t.Fatal("a release of an unknown query was taken")
			}
		}},
		{"a solo loop goes on until a rule ends it", func(t *testing.T) {
			b := solo(t, true, 0)
			for s := int32(1); s <= 3; s++ {
				if b.stepped(1, step(0, 2, 4, 9)) || !runs(b, 1, s) {
					t.Fatalf("the loop did not go on to step %d", s)
				}
			}
			loopEnds(t, b, step(0, 0, query.NoResult, query.NoResult))
			if q := b.queries[1]; q.rel.step != 0 || q.step != 4 || q.bestGoal != 9 {
				t.Fatalf("report from step %d, next step %d, best goal %v; want 0, 4 and 9", q.rel.step, q.step, q.bestGoal)
			}
		}},
		{"a non-solo release reports after one superstep", func(t *testing.T) {
			b := newBarrier()
			b.execute(1, false, 0)
			b.ready(1, release{})
			runs(&b, 1, 0)
			loopEnds(t, &b, step(0, 2, 4, 9))
		}},
		{"stopping ends a solo loop", func(t *testing.T) {
			b := solo(t, false, 0)
			b.stop(1, 1)
			loopEnds(t, b, step(0, 2, 4, 9))
		}},
		{"a batch sent ends a solo loop", func(t *testing.T) {
			loopEnds(t, solo(t, false, 0), step(1, 2, 4, 9))
		}},
		{"no active vertex ends a solo loop", func(t *testing.T) {
			loopEnds(t, solo(t, false, 0), step(0, 0, 4, 9))
		}},
		{"the monotone bound ends a solo loop", func(t *testing.T) {
			if b := solo(t, false, 0); b.stepped(1, step(0, 2, 9, 9)) {
				t.Fatal("the bound ended a loop of a program that is not monotone")
			}
			b := solo(t, true, 0)
			b.stepped(1, step(0, 2, 4, 9))
			runs(b, 1, 1)
			loopEnds(t, b, step(0, 2, 9, query.NoResult)) // the bound holds the goal found before
		}},
		{"MaxIters ends a solo loop", func(t *testing.T) {
			b := solo(t, false, 2)
			if b.stepped(1, step(0, 2, 4, 9)) || !runs(b, 1, 1) {
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
			b := newBarrier()
			b.execute(1, false, 0)
			m, s := batch(1, 0), int32(0)
			cycle := func() {
				m.Step, s = s, s+1
				b.batch(m, false)
				b.ready(1, release{step: s, expect: 1})
				runs(&b, 1, s)
				b.stepped(1, step(1, 1, 4, 9))
			}
			cycle()
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Fatalf("%v allocations a release", n)
			}
		}},
		{"a StopAck waits for every peer's marker, early ones included", func(t *testing.T) {
			b := newBarrier()
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
			b = newBarrier()
			b.marker(1)
			b.stop(1, 1)
			if epoch, due := b.ack(); !due || epoch != 1 {
				t.Fatal("the StopAck did not count the marker that came before the GlobalStop")
			}
		}},
		{"markers at or below the acked epoch are spent", func(t *testing.T) {
			b := newBarrier()
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
			b := newBarrier()
			b.stop(1, 0)
			b.arrive(5)
			b.start()
			if b.stopping || b.arrived != nil {
				t.Fatalf("stopping %v, arrived %v after GlobalStart", b.stopping, b.arrived)
			}
		}},
		{"reset clears everything and leaves the worker stopping", func(t *testing.T) {
			b := solo(t, false, 0)
			b.stepped(1, step(0, 2, 4, 9)) // queued
			b.execute(2, false, 0)
			b.ready(2, release{step: 1, expect: 1}) // held
			b.batch(batch(3, 0), false)             // buffered
			b.stop(1, 1)
			b.marker(2)
			b.arrive(graph.VertexID(4))
			b.reset(5)
			if b.gen != 5 || !b.stopping || len(b.queries) != 0 || len(b.early) != 0 || len(b.runnable) != 0 ||
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
