package controller

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
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
//   - a worker runs a superstep only under a release: one the controller
//     sent, or an implicit one that the decision (protocol.Rules.Decide)
//     over every peer's summary of the superstep before allowed, never
//     both; a run that the decision narrows goes on over the workers it
//     keeps;
//   - every non-drained release runs with exactly Expect batches of the
//     superstep before delivered, markers not counted, and no batch but a
//     marker arrives after the superstep that consumes it ran;
//   - every event of a worker sends exactly the report it owes, covering
//     every superstep since its last report and no other, and a superstep
//     is reported once. Outside a run, a worker owes one every superstep.
//     A worker of a run of several owes one at once when its own summary
//     leaves an end of the run possible (the run does not span every
//     worker, nothing is pending or sent, the next superstep reaches
//     MaxIters, or a monotone program knows a goal), and otherwise in the
//     event that completes its decision on a superstep that stops or
//     narrows the run. A run of one reports only once the decision stops
//     it, and never goes on after a superstep that sent a batch;
//   - a run whose decision ends the query (no active vertex, the monotone
//     bound, MaxIters) reports no superstep after the one it ends at, and
//     the controller ends the query for that same reason;
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
	// sums[(-, q, step)] holds the summaries of a run of several's
	// superstep, by worker, as the worker sent them to its peers.
	sums map[wqs]map[partition.WorkerID]protocol.StepSummary
	// heard[(w, q, step)] holds the peers whose summary of step reached w
	// while w's decision on it was pending.
	heard    map[wqs]map[partition.WorkerID]bool
	ran      map[wqs]bool // (w, q, s): w ran superstep s, as its sends show
	reported map[wqs]bool // (w, q, s): w reported superstep s
	// owes[(w, q, -)] is the first superstep w ran and has not reported.
	owes map[wqs]int32
	// under[(w, q, -)] is the last release of q recorded for w, and
	// explicit[(w, q, -)] the last one the controller sent it.
	under, explicit map[wqs]*protocol.BarrierReady
	gone            map[wqs]bool // (w, q, -): QueryFinish reached w
	// handing is the message the event hands its worker, nil in a
	// superstep.
	handing protocol.Message
	ended   map[query.ID]ending // the end a run's decision took, if one did
}

type wqs struct {
	w    partition.WorkerID
	q    query.ID
	step int32
}

// ending is the reason a run's decision ended a query for, and the
// superstep it took it on.
type ending struct {
	reason protocol.FinishReason
	step   int32
}

// newConformanceRun is the checks' state of a schedule on s.
func newConformanceRun(row conformanceRow, rng *rand.Rand, s *sim) *conformanceRun {
	r := &conformanceRun{
		row: row, rng: rng, s: s,
		releases:   make(map[wqs]*protocol.BarrierReady),
		implicitly: make(map[wqs]bool),
		batches:    make(map[wqs]int32),
		sums:       make(map[wqs]map[partition.WorkerID]protocol.StepSummary),
		heard:      make(map[wqs]map[partition.WorkerID]bool),
		ran:        make(map[wqs]bool),
		reported:   make(map[wqs]bool),
		owes:       make(map[wqs]int32),
		under:      make(map[wqs]*protocol.BarrierReady),
		explicit:   make(map[wqs]*protocol.BarrierReady),
		gone:       make(map[wqs]bool),
		ended:      make(map[query.ID]ending),
	}
	s.delivered, s.observe = r.delivered, r.observe
	return r
}

// setup builds the graph, the owners, the queries and the nodes of seed.
func (row conformanceRow) setup(t *testing.T, seed uint64) *conformanceRun {
	rng := rand.New(rand.NewPCG(seed, uint64(row.k)<<8|uint64(row.mode)<<4|uint64(row.kind)))
	s, err := ringSim(rng, row.k, func(cfg *Config) { cfg.Mode = row.mode })
	if err != nil {
		t.Fatal(err)
	}
	n := s.g.NumVertices()
	r := newConformanceRun(row, rng, s)
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
	r.handing = msg
	switch m := msg.(type) {
	case *protocol.BarrierReady:
		if r.implicitly[wqs{w, m.Q, m.Step}] {
			return fmt.Errorf("worker %d got the controller's release of query %d's step %d, which it released itself", w, m.Q, m.Step)
		}
		r.releases[wqs{w, m.Q, m.Step}] = m
		r.under[wqs{w: w, q: m.Q}] = m
		r.explicit[wqs{w: w, q: m.Q}] = m
	case *protocol.VertexBatch:
		if m.Marker() {
			break
		}
		if r.ran[wqs{w, m.Q, m.Step + 1}] {
			return fmt.Errorf("worker %d got query %d's batch of step %d after it ran step %d", w, m.Q, m.Step, m.Step+1)
		}
		r.batches[wqs{w, m.Q, m.Step}]++
	case *protocol.QueryFinish:
		r.gone[wqs{w: w, q: m.Q}] = true
	}
	return nil
}

// due is a report a worker owes: the supersteps from to step of query q.
type due struct {
	q          query.ID
	from, step int32
}

// observe checks that the event worker w just ran sent exactly the report
// it owes.
func (r *conformanceRun) observe(w partition.WorkerID) error {
	var owed *due
	var err error
	switch m := r.handing.(type) {
	case nil:
		owed, err = r.stepped(w)
	case *protocol.VertexBatch:
		if m.Summary != nil {
			owed = r.summarised(w, m)
		}
	}
	r.handing = nil
	if err != nil {
		return err
	}
	for _, msg := range r.s.net.sent {
		m, ok := msg.(*protocol.BarrierSynch)
		if !ok {
			continue
		}
		switch {
		case owed == nil:
			return fmt.Errorf("worker %d reported query %d's steps %d..%d, owing no report", w, m.Q, m.FromStep, m.Step)
		case m.Q != owed.q || m.FromStep != owed.from || m.Step != owed.step:
			return fmt.Errorf("worker %d reported query %d's steps %d..%d, owing query %d's %d..%d", w, m.Q, m.FromStep, m.Step, owed.q, owed.from, owed.step)
		}
		if err := r.report(w, m); err != nil {
			return err
		}
		owed = nil
	}
	if owed != nil {
		return fmt.Errorf("worker %d owes a report of query %d's steps %d..%d and sent none", w, owed.q, owed.from, owed.step)
	}
	return nil
}

// stepped checks the superstep worker w just ran, which its sends name, and
// says which report it owes. A run of one's superstep that sends nothing
// shows nothing, and owes nothing.
func (r *conformanceRun) stepped(w partition.WorkerID) (*due, error) {
	var q query.ID
	s := int32(-1)
	var sum *protocol.StepSummary
	summaries := 0
	for _, msg := range r.s.net.sent {
		switch m := msg.(type) {
		case *protocol.VertexBatch:
			q, s = m.Q, m.Step
			if m.Summary != nil {
				sum = m.Summary
				summaries++
			}
		case *protocol.BarrierSynch:
			q, s = m.Q, m.Step
		}
	}
	if s < 0 {
		return nil, nil
	}
	rel := r.releases[wqs{w, q, s}]
	if rel == nil {
		// A run of one's superstep after its first: its release is the
		// run's.
		if rel = r.under[wqs{w: w, q: q}]; rel == nil || len(rel.Peers) != 1 || rel.Step > s {
			return nil, fmt.Errorf("worker %d ran query %d's step %d, never released", w, q, s)
		}
	} else if got := r.batches[wqs{w, q, s - 1}]; !rel.Drained && got != rel.Expect {
		return nil, fmt.Errorf("worker %d ran query %d's step %d with %d batches, Expect %d", w, q, s, got, rel.Expect)
	}
	r.ran[wqs{w, q, s}] = true
	switch {
	case rel.Peers == nil:
		return &due{q, s, s}, nil
	case len(rel.Peers) == 1:
		// Its one report covers the run; the decision on the report's
		// summary, which only the report shows, must stop the run.
		for _, msg := range r.s.net.sent {
			if _, ok := msg.(*protocol.BarrierSynch); ok {
				return &due{q, rel.Step, s}, nil
			}
		}
		return nil, fmt.Errorf("worker %d sent a batch of query %d and looped on solo", w, q)
	}
	if summaries != len(rel.Peers)-1 {
		return nil, fmt.Errorf("worker %d sent %d summaries of query %d's step %d to its %d peers", w, summaries, q, s, len(rel.Peers)-1)
	}
	if _, ok := r.owes[wqs{w: w, q: q}]; !ok {
		r.owes[wqs{w: w, q: q}] = s
	}
	k := wqs{q: q, step: s}
	if r.sums[k] == nil {
		r.sums[k] = make(map[partition.WorkerID]protocol.StepSummary)
	}
	r.sums[k][w] = *sum
	if len(r.sums[k]) == len(rel.Peers) {
		r.decide(q, s, rel)
	}
	if r.prompt(rel, q, s, *sum) {
		return r.owed(w, q, s), nil
	}
	return r.decided(w, q, s, rel), nil
}

// prompt says whether a worker of a run of several under rel owes its
// report of query q's superstep s, of summary sum, at once: when its own
// summary leaves an end of the run possible.
func (r *conformanceRun) prompt(rel *protocol.BarrierReady, q query.ID, s int32, sum protocol.StepSummary) bool {
	spec := r.specs[q-1]
	quiescent := sum.NActiveNext == 0
	for _, nb := range sum.SentBatches {
		quiescent = quiescent && nb == 0
	}
	return len(rel.Peers) < r.row.k || quiescent ||
		spec.MaxIters > 0 && int(s)+1 >= spec.MaxIters ||
		query.MustNew(spec.Kind).Monotone() && sum.BestGoal < query.NoResult
}

// summarised records the summary on batch m as worker w is handed it, and
// says which report it makes w owe.
func (r *conformanceRun) summarised(w partition.WorkerID, m *protocol.VertexBatch) *due {
	q, s := m.Q, m.Step
	// A release of a later superstep from the controller replaced w's
	// decision on s; a QueryFinish dropped it.
	if rel := r.explicit[wqs{w: w, q: q}]; rel != nil && rel.Step > s || r.gone[wqs{w: w, q: q}] {
		return nil
	}
	k := wqs{w, q, s}
	if r.heard[k] == nil {
		r.heard[k] = make(map[partition.WorkerID]bool)
	}
	r.heard[k][m.From] = true
	if !r.ran[k] {
		return nil
	}
	return r.decided(w, q, s, r.releases[k])
}

// decided says which report worker w, which ran query q's superstep s of a
// run under rel, owes once it heard every peer's summary of s: every
// superstep it deferred, if the decision stops or narrows the run.
func (r *conformanceRun) decided(w partition.WorkerID, q query.ID, s int32, rel *protocol.BarrierReady) *due {
	if len(r.heard[wqs{w, q, s}]) < len(rel.Peers)-1 {
		return nil
	}
	d := decide(r.rules(q), s, rel.BestGoal, r.sums[wqs{q: q, step: s}])
	if d.Runs(rel.Peers) && len(d.Next) == len(rel.Peers) {
		return nil
	}
	return r.owed(w, q, s)
}

// owed is worker w's report of query q up to superstep s, if it deferred
// any superstep.
func (r *conformanceRun) owed(w partition.WorkerID, q query.ID, s int32) *due {
	from, ok := r.owes[wqs{w: w, q: q}]
	if !ok {
		return nil
	}
	return &due{q, from, s}
}

// decide is rules' decision on superstep s over the summaries of sums, by
// worker, taken in worker order.
func decide(rules protocol.Rules, s int32, best float64, sums map[partition.WorkerID]protocol.StepSummary) (d protocol.Decision) {
	peers := slices.Sorted(maps.Keys(sums))
	in := make([]protocol.StepSummary, len(peers))
	for i, w := range peers {
		in[i] = sums[w]
	}
	rules.Decide(&d, s, best, peers, in)
	return d
}

func (r *conformanceRun) rules(q query.ID) protocol.Rules {
	spec := r.specs[q-1]
	return protocol.Rules{Monotone: query.MustNew(spec.Kind).Monotone(), MaxIters: spec.MaxIters}
}

// decide takes the decision on query q's superstep s of a run under rel,
// every peer's summary in: it records the end it decides, or the implicit
// release of the next superstep over the peers it keeps.
func (r *conformanceRun) decide(q query.ID, s int32, rel *protocol.BarrierReady) {
	d := decide(r.rules(q), s, rel.BestGoal, r.sums[wqs{q: q, step: s}])
	if d.End != 0 {
		r.ended[q] = ending{d.End, s}
	}
	if !d.Runs(rel.Peers) {
		return
	}
	peers := slices.Sorted(maps.Keys(d.Next))
	for _, p := range peers {
		next := &protocol.BarrierReady{Q: q, Step: s + 1, Expect: d.Expect[p], BestGoal: d.BestGoal, Peers: peers}
		r.implicitly[wqs{p, q, s + 1}] = true
		r.releases[wqs{p, q, s + 1}] = next
		r.under[wqs{w: p, q: q}] = next
	}
}

// report checks and records worker w's report m, which it owed.
func (r *conformanceRun) report(w partition.WorkerID, m *protocol.BarrierSynch) error {
	if e, ok := r.ended[m.Q]; ok && m.Step > e.step {
		return fmt.Errorf("worker %d reported query %d's step %d after a run's decision ended it at %d", w, m.Q, m.Step, e.step)
	}
	for s := m.FromStep; s <= m.Step; s++ {
		if r.reported[wqs{w, m.Q, s}] {
			return fmt.Errorf("worker %d reported query %d's step %d twice", w, m.Q, s)
		}
		r.reported[wqs{w, m.Q, s}] = true
		r.ran[wqs{w, m.Q, s}] = true
	}
	delete(r.owes, wqs{w: w, q: m.Q})
	rel := r.releases[wqs{w, m.Q, m.FromStep}]
	if rel == nil || len(rel.Peers) != 1 {
		return nil
	}
	if got := r.batches[wqs{w, m.Q, m.FromStep - 1}]; !rel.Drained && got != rel.Expect {
		return fmt.Errorf("worker %d ran query %d's step %d with %d batches, Expect %d", w, m.Q, m.FromStep, got, rel.Expect)
	}
	d := decide(r.rules(m.Q), m.Step, rel.BestGoal, map[partition.WorkerID]protocol.StepSummary{w: m.Summary()})
	if d.Runs(rel.Peers) {
		return fmt.Errorf("worker %d reported query %d's run of one after step %d, which the decision continues", w, m.Q, m.Step)
	}
	if d.End != 0 {
		r.ended[m.Q] = ending{d.End, m.Step}
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
		if want, ok := r.ended[spec.ID]; ok && res.Reason != want.reason {
			return fmt.Errorf("query %d: a run's decision ended it with reason %v, the controller with %v", spec.ID, want.reason, res.Reason)
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
