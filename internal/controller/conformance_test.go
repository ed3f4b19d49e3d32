package controller

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
)

// conformanceRow is one configuration TestBarrierConformance runs over
// many seeds.
type conformanceRow struct {
	k       int
	mode    SyncMode
	kind    query.Kind
	barrier bool // force one global barrier, with a move, mid-query
}

// TestBarrierConformance runs the controller's half of the hybrid barrier
// (its round) against k real workers' half (their barrier machine), both
// loop-less, on the sim. A seeded PRNG picks each next event: a link's head
// is delivered, a worker runs one queued superstep, or the next query is
// scheduled. Half the links between workers are slow, so batches overtake
// each other's causes as on a real network. With barrier set, one global
// barrier with a scope move is forced mid-query, as a Q-cut plan would,
// preferably while a batch is between workers. On every
// schedule:
//   - every answer equals the sequential reference (graph.DijkstraTo,
//     graph.BFSHops, query.RefPageRank);
//   - a worker reports a superstep only under a release, and once: one
//     the controller sent, or an implicit one that the decision
//     (protocol.Rules.Decide) over every peer's report on the superstep
//     before allowed, never both;
//   - every non-drained release runs with exactly Expect batches of the
//     superstep before delivered, markers not counted, and no batch but a
//     marker arrives after the superstep that consumes it ran;
//   - no superstep after which a worker went on with a run of one sent a
//     batch, and a run of one reports only once the decision stops it;
//   - a run whose reports end the query by the decision (no active vertex,
//     the monotone bound, MaxIters) reported its query's last superstep,
//     and the controller ends the query for that same reason;
//   - the schedule ends with every query finished.
func TestBarrierConformance(t *testing.T) {
	const seeds = 50
	for _, k := range []int{2, 3} {
		for _, mode := range []SyncMode{SyncHybrid, SyncLimited, SyncGlobal} {
			for _, kind := range []query.Kind{query.KindBFS, query.KindSSSP, query.KindPageRank} {
				for _, barrier := range []bool{false, true} {
					row := conformanceRow{k, mode, kind, barrier}
					t.Run(fmt.Sprintf("k%d/%s/%s/barrier=%v", k, mode, kind, barrier), func(t *testing.T) {
						barriers := 0
						for seed := uint64(1); seed <= seeds; seed++ {
							r := row.setup(t, seed)
							if err := r.schedule(); err != nil {
								t.Fatalf("seed %d: %v", seed, err)
							}
							if err := r.answers(); err != nil {
								t.Fatalf("seed %d: %v", seed, err)
							}
							if r.s.c.RepartitionEpoch() > 0 {
								barriers++
							}
						}
						// Most forced barriers must execute, or the row tests
						// nothing; a query may finish before its turn comes.
						if barrier && barriers < seeds/2 {
							t.Fatalf("the forced barrier executed on %d of %d seeds", barriers, seeds)
						}
					})
				}
			}
		}
	}
}

// conformanceRun is one schedule of a row: the nodes, the links and what
// the checks remember of the traffic.
type conformanceRun struct {
	row     conformanceRow
	rng     *rand.Rand
	s       *sim
	specs   []query.Spec
	results []chan Result

	releases   map[wqs]*protocol.BarrierReady // delivered to w, or implicit, by (w, q, step)
	implicitly map[wqs]bool                   // the releases of releases that were implicit
	batches    map[wqs]int32                  // VertexBatches of (q, step) delivered to w, markers aside
	// sums[(-, q, step)] holds the reports under an implicitly continuable
	// release, by worker.
	sums     map[wqs]map[partition.WorkerID]protocol.StepSummary
	reported map[wqs]bool                       // (w, q, s): w reported superstep s
	ended    map[query.ID]protocol.FinishReason // the reason a run's reports ended the query with
}

type wqs struct {
	w    partition.WorkerID
	q    query.ID
	step int32
}

// setup builds the graph, the owners, the queries and the nodes of seed.
func (row conformanceRow) setup(t *testing.T, seed uint64) *conformanceRun {
	rng := rand.New(rand.NewPCG(seed, uint64(row.k)<<8|uint64(row.mode)<<4|uint64(row.kind)))
	s, err := ringSim(rng, row.k, func(cfg *Config) { cfg.Mode = row.mode })
	if err != nil {
		t.Fatal(err)
	}
	n := s.g.NumVertices()
	r := &conformanceRun{
		row: row, rng: rng, s: s,
		releases:   make(map[wqs]*protocol.BarrierReady),
		batches:    make(map[wqs]int32),
		sums:       make(map[wqs]map[partition.WorkerID]protocol.StepSummary),
		implicitly: make(map[wqs]bool),
		reported:   make(map[wqs]bool),
		ended:      make(map[query.ID]protocol.FinishReason),
	}
	s.delivered, s.observe = r.delivered, r.observe
	for i := range 3 {
		spec := query.Spec{ID: query.ID(i + 1), Kind: row.kind, Source: graph.VertexID(rng.IntN(n)), Target: graph.NilVertex}
		switch row.kind {
		case query.KindSSSP:
			spec.Target = graph.VertexID(rng.IntN(n))
		case query.KindPageRank:
			spec.MaxIters, spec.Epsilon = 2+rng.IntN(7), 1e-3
		}
		r.specs = append(r.specs, spec)
		r.results = append(r.results, make(chan Result, 1))
		s.script = append(s.script, action{at: s.now, name: "schedule", do: func() error {
			s.c.onSchedule(scheduleReq{spec: spec, ch: r.results[i]})
			return nil
		}})
	}
	return r
}

// schedule runs the sim until it settled. The barrier waits, for a while,
// for a batch between workers in flight: the markers must then drain it.
func (r *conformanceRun) schedule() error {
	forceAt := r.rng.IntN(60)
	forced := !r.row.barrier
	r.s.turn = func(event int) {
		if !forced && event >= forceAt && r.s.c.adapt.phase == phaseRun && len(r.s.c.queries) > 0 &&
			(r.batchInFlight() || event >= forceAt+100) {
			forced = true
			r.force()
		}
	}
	return r.s.run()
}

// batchInFlight says whether a link between workers holds a batch.
func (r *conformanceRun) batchInFlight() bool {
	for i, l := range r.s.net.links {
		if r.s.net.workerLink(i) && len(l) > 0 {
			return true
		}
	}
	return false
}

// force begins a global barrier that moves a running query's scope, as a
// Q-cut plan would.
func (r *conformanceRun) force() {
	var q query.ID
	for id := range r.s.c.queries {
		q = max(q, id) // the newest: the map order must not pick
	}
	// From a worker that holds some of its scope, if one does.
	off := r.rng.IntN(r.row.k)
	from := partition.WorkerID(off)
	for i := range r.row.k {
		if w := (off + i) % r.row.k; r.s.c.queries[q].scopeSizes[w] > 0 {
			from = partition.WorkerID(w)
			break
		}
	}
	to := (from + 1 + partition.WorkerID(r.rng.IntN(r.row.k-1))) % partition.WorkerID(r.row.k)
	r.s.c.adapt.trigger(minWindowQueries, 0, 0)
	r.s.c.onQcutDone(qcut.Result{Moves: []qcut.Move{{Q: q, From: from, To: to}}})
}

// delivered checks and records a message as worker w is handed it.
func (r *conformanceRun) delivered(w partition.WorkerID, msg protocol.Message) error {
	switch m := msg.(type) {
	case *protocol.BarrierReady:
		if r.implicitly[wqs{w, m.Q, m.Step}] {
			return fmt.Errorf("worker %d got the controller's release of query %d's step %d, which it released itself", w, m.Q, m.Step)
		}
		r.releases[wqs{w, m.Q, m.Step}] = m
	case *protocol.VertexBatch:
		if m.Marker() {
			break
		}
		if r.reported[wqs{w, m.Q, m.Step + 1}] {
			return fmt.Errorf("worker %d got query %d's batch of step %d after it ran step %d", w, m.Q, m.Step, m.Step+1)
		}
		r.batches[wqs{w, m.Q, m.Step}]++
	}
	return nil
}

// observe checks what worker w sent in the last event.
func (r *conformanceRun) observe(w partition.WorkerID) error {
	batched := map[query.ID]bool{}
	for _, msg := range r.s.net.sent {
		switch m := msg.(type) {
		case *protocol.VertexBatch:
			batched[m.Q] = true
		case *protocol.BarrierSynch:
			delete(batched, m.Q)
			if err := r.report(w, m); err != nil {
				return err
			}
		}
	}
	for q := range batched {
		return fmt.Errorf("worker %d sent a batch of query %d and looped on solo", w, q)
	}
	return nil
}

// report checks worker w's report m against the release it covers.
func (r *conformanceRun) report(w partition.WorkerID, m *protocol.BarrierSynch) error {
	if _, ok := r.ended[m.Q]; ok {
		return fmt.Errorf("worker %d reported query %d's step %d after a run's reports ended it", w, m.Q, m.Step)
	}
	rel := r.releases[wqs{w, m.Q, m.FromStep}]
	if rel == nil {
		return fmt.Errorf("worker %d reported query %d's steps %d..%d, never released", w, m.Q, m.FromStep, m.Step)
	}
	if got := r.batches[wqs{w, m.Q, m.FromStep - 1}]; !rel.Drained && got != rel.Expect {
		return fmt.Errorf("worker %d ran query %d's step %d with %d batches, Expect %d", w, m.Q, m.FromStep, got, rel.Expect)
	}
	for s := m.FromStep; s <= m.Step; s++ {
		if r.reported[wqs{w, m.Q, s}] {
			return fmt.Errorf("worker %d reported query %d's step %d twice", w, m.Q, s)
		}
		r.reported[wqs{w, m.Q, s}] = true
	}
	if rel.Peers != nil {
		return r.run(w, m, rel)
	}
	return nil
}

// run files worker w's report m under rel, a run's release, and once every
// peer's report is in, takes the decision: it records the implicit release
// of the next superstep the decision allows, or the end it decides. A run
// of one reports only once the decision stops it.
func (r *conformanceRun) run(w partition.WorkerID, m *protocol.BarrierSynch, rel *protocol.BarrierReady) error {
	k := wqs{q: m.Q, step: m.Step}
	if r.sums[k] == nil {
		r.sums[k] = make(map[partition.WorkerID]protocol.StepSummary)
	}
	r.sums[k][w] = m.Summary()
	if len(r.sums[k]) < len(rel.Peers) {
		return nil
	}
	spec := r.specs[m.Q-1]
	rules := protocol.Rules{Monotone: query.MustNew(spec.Kind).Monotone(), MaxIters: spec.MaxIters}
	var d protocol.Decision
	rules.Decide(&d, m.Step, rel.BestGoal, r.sums[k])
	if d.End != 0 {
		r.ended[m.Q] = d.End
	}
	if !d.Continues(rel.Peers) {
		return nil
	}
	if len(rel.Peers) == 1 {
		return fmt.Errorf("worker %d reported query %d's run of one after step %d, which the decision continues", w, m.Q, m.Step)
	}
	for _, p := range rel.Peers {
		r.implicitly[wqs{p, m.Q, m.Step + 1}] = true
		r.releases[wqs{p, m.Q, m.Step + 1}] = &protocol.BarrierReady{
			Q: m.Q, Step: m.Step + 1, Expect: d.Expect[p], BestGoal: d.BestGoal, Peers: rel.Peers,
		}
	}
	return nil
}

// answers checks every query's result against the reference.
func (r *conformanceRun) answers() error {
	for i, spec := range r.specs {
		var res Result
		select {
		case res = <-r.results[i]:
		default:
			return fmt.Errorf("query %d unfinished at quiescence (phase %d)", spec.ID, r.s.c.adapt.phase)
		}
		if want, ok := r.ended[spec.ID]; ok && res.Reason != want {
			return fmt.Errorf("query %d: a run's reports ended it with reason %v, the controller with %v", spec.ID, want, res.Reason)
		}
		switch spec.Kind {
		case query.KindBFS:
			reach := 0
			for _, h := range graph.BFSHops(r.s.g, spec.Source) {
				if h >= 0 {
					reach++
				}
			}
			if res.Reason != protocol.FinishConverged || res.Touched != reach {
				return fmt.Errorf("BFS %d from %d: %v touching %d, want converged touching %d", spec.ID, spec.Source, res.Reason, res.Touched, reach)
			}
		case query.KindSSSP:
			if want := graph.DijkstraTo(r.s.g, spec.Source, spec.Target); res.Value != want {
				return fmt.Errorf("SSSP %d %d→%d: %v (%v), want %v", spec.ID, spec.Source, spec.Target, res.Value, res.Reason, want)
			}
		case query.KindPageRank:
			if want := len(query.RefPageRank(r.s.g, spec)); res.Touched != want {
				return fmt.Errorf("PageRank %d from %d: touched %d (%v), want %d", spec.ID, spec.Source, res.Touched, res.Reason, want)
			}
		}
	}
	return nil
}
