package controller

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	"qgraph/internal/transport"
	"qgraph/internal/worker"
)

// fifoNet is a network of per-link FIFOs that a test delivers by hand: a
// send appends to its link and to sent, and nothing moves until the test
// hands a link's head to its receiver.
type fifoNet struct {
	n     int
	links [][]transport.Envelope // by from*n + to
	sent  []protocol.Message     // every send since the test last looked
}

// workerLink says whether link i joins two workers.
func (net *fifoNet) workerLink(i int) bool {
	return i/net.n != int(protocol.ControllerNode) && i%net.n != int(protocol.ControllerNode)
}

type fifoConn struct {
	net *fifoNet
	id  protocol.NodeID
}

func (c fifoConn) Send(to protocol.NodeID, m protocol.Message) error {
	if int(to) >= c.net.n || to == c.id {
		return fmt.Errorf("bad destination %d", to)
	}
	i := int(c.id)*c.net.n + int(to)
	c.net.links[i] = append(c.net.links[i], transport.Envelope{From: c.id, Msg: m})
	c.net.sent = append(c.net.sent, m)
	return nil
}
func (fifoConn) Inbox() <-chan transport.Envelope { return nil }
func (fifoConn) Close() error                     { return nil }

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
// loop-less, wired by per-link FIFOs. A seeded PRNG picks each next event:
// a link's head is delivered, a worker runs one queued superstep, or the
// next query is scheduled. Half the links between workers are slow, so
// batches overtake each other's causes as on a real network. With barrier
// set, one global barrier with a scope move is forced mid-query, as a
// Q-cut plan would, preferably while a batch is between workers. On every
// schedule:
//   - every answer equals the sequential reference (graph.DijkstraTo,
//     graph.BFSHops, query.RefPageRank);
//   - every non-drained release runs with exactly Expect batches of the
//     superstep before delivered, and no batch arrives after the superstep
//     that consumes it ran;
//   - no superstep after which a worker kept looping solo sent a batch;
//   - a solo report that stopped its loop on a termination rule (no active
//     vertex, the monotone bound, MaxIters) is its query's last, and the
//     controller ends the query for that same reason;
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
							if r.c.RepartitionEpoch() > 0 {
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
	g       *graph.Graph
	net     *fifoNet
	c       *Controller
	workers []*worker.Worker
	specs   []query.Spec
	results []chan Result

	releases map[wqs]*protocol.BarrierReady     // delivered to w, by (w, q, step)
	batches  map[wqs]int32                      // VertexBatches of (q, step) delivered to w
	reported map[wqs]bool                       // (w, q, s): w reported superstep s
	stopping []bool                             // between GlobalStop and GlobalStart, per worker
	ended    map[query.ID]protocol.FinishReason // the reason a solo report ended the query with
	slow     []bool                             // by link: worker links that deliver late
}

type wqs struct {
	w    partition.WorkerID
	q    query.ID
	step int32
}

// setup builds the graph, the owners, the queries and the nodes of seed.
func (row conformanceRow) setup(t *testing.T, seed uint64) *conformanceRun {
	rng := rand.New(rand.NewPCG(seed, uint64(row.k)<<8|uint64(row.mode)<<4|uint64(row.kind)))
	n := 32 + rng.IntN(32)
	b := graph.NewBuilder(n)
	for v := range n {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID((v+1)%n), float32(1+rng.IntN(4)))
	}
	for range n / 6 {
		if u, v := rng.IntN(n), rng.IntN(n); u != v {
			b.AddBiEdge(graph.VertexID(u), graph.VertexID(v), float32(1+rng.IntN(4)))
		}
	}
	g := b.MustBuild()
	// Owners are arcs of the ring, so queries run solo for a while, with
	// some vertices scattered, so they also cross workers early.
	owner := make(partition.Assignment, n)
	for v := range owner {
		owner[v] = partition.WorkerID(v * row.k / n)
		if rng.IntN(16) == 0 {
			owner[v] = partition.WorkerID(rng.IntN(row.k))
		}
	}
	now := time.Unix(1_000, 0)
	clock := func() time.Time { return now }
	net := &fifoNet{n: row.k + 1, links: make([][]transport.Envelope, (row.k+1)*(row.k+1))}
	slow := make([]bool, len(net.links))
	for i := range slow {
		slow[i] = net.workerLink(i) && rng.IntN(2) == 0
	}
	c, err := New(Config{
		K: row.k, Graph: g, Owner: owner, Mode: row.mode, HeartbeatEvery: -1, Clock: clock,
	}, fifoConn{net, protocol.ControllerNode})
	if err != nil {
		t.Fatal(err)
	}
	r := &conformanceRun{
		row: row, rng: rng, g: g, net: net, c: c,
		releases: make(map[wqs]*protocol.BarrierReady),
		batches:  make(map[wqs]int32),
		reported: make(map[wqs]bool),
		stopping: make([]bool, row.k),
		ended:    make(map[query.ID]protocol.FinishReason),
		slow:     slow,
	}
	for w := range row.k {
		id := partition.WorkerID(w)
		wk, err := worker.New(worker.Config{ID: id, K: row.k, Graph: g, Owner: owner, Clock: clock},
			fifoConn{net, protocol.WorkerNode(id)})
		if err != nil {
			t.Fatal(err)
		}
		r.workers = append(r.workers, wk)
	}
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
	}
	return r
}

// schedule runs events until none is enabled.
func (r *conformanceRun) schedule() error {
	k := r.row.k
	idle := make([]bool, k) // Step found nothing queued, and no message came since
	for i := range idle {
		idle[i] = true
	}
	scheduled := 0
	forceAt := r.rng.IntN(60)
	forced := !r.row.barrier
	for event := 0; ; event++ {
		if event > 200_000 {
			return fmt.Errorf("no quiescence after %d events", event)
		}
		r.net.sent = r.net.sent[:0]
		// The barrier waits, for a while, for a batch between workers in
		// flight: the markers must then drain it.
		if !forced && event >= forceAt && r.c.adapt.phase == phaseRun && len(r.c.queries) > 0 &&
			(r.batchInFlight() || event >= forceAt+100) {
			forced = true
			r.force()
		}
		// The enabled events: link heads, then workers' supersteps, then
		// the next schedule. A slow link's head is enabled one turn in
		// eight, or when nothing else is.
		var links, held []int
		for i, l := range r.net.links {
			switch {
			case len(l) == 0:
			case r.slow[i] && r.rng.IntN(8) != 0:
				held = append(held, i)
			default:
				links = append(links, i)
			}
		}
		var steps []int
		for w, ok := range idle {
			if !ok {
				steps = append(steps, w)
			}
		}
		n := len(links) + len(steps)
		if scheduled < len(r.specs) {
			n++
		}
		if n == 0 && len(held) == 0 {
			return nil
		}
		if n == 0 {
			links, n = held, len(held)
		}
		switch pick := r.rng.IntN(n); {
		case pick < len(links):
			i := links[pick]
			env := r.net.links[i][0]
			r.net.links[i] = r.net.links[i][1:]
			to := protocol.NodeID(i % r.net.n)
			if to == protocol.ControllerNode {
				if err := r.c.handle(env); err != nil {
					return err
				}
				continue
			}
			w := protocol.WorkerOf(to)
			if err := r.delivered(w, env.Msg); err != nil {
				return err
			}
			idle[w] = false
			if _, err := r.workers[w].Handle(env); err != nil {
				return err
			}
			if err := r.observe(w); err != nil {
				return err
			}
		case pick < len(links)+len(steps):
			w := steps[pick-len(links)]
			ran, err := r.workers[w].Step()
			if err != nil {
				return err
			}
			idle[w] = !ran
			if err := r.observe(partition.WorkerID(w)); err != nil {
				return err
			}
		default:
			r.c.onSchedule(scheduleReq{spec: r.specs[scheduled], ch: r.results[scheduled]})
			scheduled++
		}
	}
}

// batchInFlight says whether a link between workers holds a batch.
func (r *conformanceRun) batchInFlight() bool {
	for i, l := range r.net.links {
		if r.net.workerLink(i) && len(l) > 0 {
			return true
		}
	}
	return false
}

// force begins a global barrier that moves a running query's scope, as a
// Q-cut plan would.
func (r *conformanceRun) force() {
	var q query.ID
	for id := range r.c.queries {
		q = max(q, id) // the newest: the map order must not pick
	}
	// From a worker that holds some of its scope, if one does.
	off := r.rng.IntN(r.row.k)
	from := partition.WorkerID(off)
	for i := range r.row.k {
		if w := (off + i) % r.row.k; r.c.queries[q].scopeSizes[w] > 0 {
			from = partition.WorkerID(w)
			break
		}
	}
	to := (from + 1 + partition.WorkerID(r.rng.IntN(r.row.k-1))) % partition.WorkerID(r.row.k)
	r.c.adapt.trigger(minWindowQueries, 0, 0)
	r.c.onQcutDone(qcut.Result{Moves: []qcut.Move{{Q: q, From: from, To: to}}})
}

// delivered checks and records a message as worker w is handed it.
func (r *conformanceRun) delivered(w partition.WorkerID, msg protocol.Message) error {
	switch m := msg.(type) {
	case *protocol.BarrierReady:
		r.releases[wqs{w, m.Q, m.Step}] = m
	case *protocol.VertexBatch:
		if r.reported[wqs{w, m.Q, m.Step + 1}] {
			return fmt.Errorf("worker %d got query %d's batch of step %d after it ran step %d", w, m.Q, m.Step, m.Step+1)
		}
		r.batches[wqs{w, m.Q, m.Step}]++
	case *protocol.GlobalStop:
		r.stopping[w] = true
	case *protocol.GlobalStart:
		r.stopping[w] = false
	}
	return nil
}

// observe checks what worker w sent in the last event.
func (r *conformanceRun) observe(w partition.WorkerID) error {
	batched := map[query.ID]bool{}
	for _, msg := range r.net.sent {
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
		return fmt.Errorf("worker %d reported query %d's step %d after a solo report ended it", w, m.Q, m.Step)
	}
	rel := r.releases[wqs{w, m.Q, m.FromStep}]
	if rel == nil {
		return fmt.Errorf("worker %d reported query %d's steps %d..%d, never released", w, m.Q, m.FromStep, m.Step)
	}
	if got := r.batches[wqs{w, m.Q, m.FromStep - 1}]; !rel.Drained && got != rel.Expect {
		return fmt.Errorf("worker %d ran query %d's step %d with %d batches, Expect %d", w, m.Q, m.FromStep, got, rel.Expect)
	}
	for s := m.FromStep; s <= m.Step; s++ {
		r.reported[wqs{w, m.Q, s}] = true
	}
	sent := false
	for _, nb := range m.SentBatches {
		sent = sent || nb > 0
	}
	if !rel.Solo || sent || r.stopping[w] {
		return nil
	}
	spec := r.specs[m.Q-1]
	switch {
	case m.NActiveNext == 0:
		r.ended[m.Q] = protocol.FinishConverged
	case query.MustNew(spec.Kind).Monotone() && m.MinFrontier >= m.BestGoal:
		r.ended[m.Q] = protocol.FinishEarly
	case spec.MaxIters > 0 && int(m.Step)+1 >= spec.MaxIters:
		r.ended[m.Q] = protocol.FinishMaxIters
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
			return fmt.Errorf("query %d unfinished at quiescence (phase %d)", spec.ID, r.c.adapt.phase)
		}
		if want, ok := r.ended[spec.ID]; ok && res.Reason != want {
			return fmt.Errorf("query %d: a solo report ended it with reason %v, the controller with %v", spec.ID, want, res.Reason)
		}
		switch spec.Kind {
		case query.KindBFS:
			reach := 0
			for _, h := range graph.BFSHops(r.g, spec.Source) {
				if h >= 0 {
					reach++
				}
			}
			if res.Reason != protocol.FinishConverged || res.Touched != reach {
				return fmt.Errorf("BFS %d from %d: %v touching %d, want converged touching %d", spec.ID, spec.Source, res.Reason, res.Touched, reach)
			}
		case query.KindSSSP:
			if want := graph.DijkstraTo(r.g, spec.Source, spec.Target); res.Value != want {
				return fmt.Errorf("SSSP %d %d→%d: %v (%v), want %v", spec.ID, spec.Source, spec.Target, res.Value, res.Reason, want)
			}
		case query.KindPageRank:
			if want := len(query.RefPageRank(r.g, spec)); res.Touched != want {
				return fmt.Errorf("PageRank %d from %d: touched %d (%v), want %d", spec.ID, spec.Source, res.Touched, res.Reason, want)
			}
		}
	}
	return nil
}
