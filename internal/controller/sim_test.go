package controller

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
	"qgraph/internal/worker"
)

// fifoNet is a network of per-link FIFOs that a test delivers by hand: a
// send appends to its link and to sent, and nothing moves until the test
// hands a link's head to its receiver.
type fifoNet struct {
	n     int
	links [][]inFlight       // by from*n + to
	sent  []protocol.Message // every send since the test last looked
	fresh []int              // the links of the sends the sim has not stamped
}

// inFlight is a message on a link and the virtual time it falls due, -1
// until the sim stamps it.
type inFlight struct {
	transport.Envelope
	due time.Duration
}

func newFifoNet(n int) *fifoNet { return &fifoNet{n: n, links: make([][]inFlight, n*n)} }

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
	c.net.links[i] = append(c.net.links[i], inFlight{transport.Envelope{From: c.id, Msg: m}, -1})
	c.net.sent = append(c.net.sent, m)
	c.net.fresh = append(c.net.fresh, i)
	return nil
}
func (fifoConn) Inbox() <-chan transport.Envelope { return nil }
func (fifoConn) Close() error                     { return nil }

// sim is a cluster in one goroutine: a controller and k workers that no Run
// drives, wired by a fifoNet, stepped on a virtual clock that both read
// through Config.Clock. Each turn it takes the enabled events that fall due
// first under its cost model, picks one of them by a seeded PRNG, moves the
// clock to its due time and runs it:
//   - a link's head is delivered;
//   - a live worker runs one queued superstep;
//   - the controller steps the head of its event queue (a caller's request
//     or a job's report), a WAL completion, or a tick;
//   - a job the controller handed out runs, and its report joins the queue;
//   - a respawned worker starts;
//   - the script's next action runs, while allowed.
//
// A kill stops stepping a worker and drops its inbound links; sends to it
// queue for a replacement. Every event is logged, so one seed's log is the
// same bytes every run.
type sim struct {
	rng     *rand.Rand
	model   costModel
	start   time.Time
	now     time.Duration   // virtual time since start
	every   time.Duration   // Config.CheckEvery: one tick
	tickAt  time.Duration   // when the next tick falls due
	free    []time.Duration // by node: when its last event's work ends
	scope   map[wqs]int32   // ScopeSize of (w, q)'s last report
	limit   int             // events before run gives up on quiescence
	g       *graph.Graph
	owner   partition.Assignment
	store   *snapshot.Store
	net     *fifoNet
	c       *Controller
	workers []*worker.Worker // nil while killed
	idle    []bool           // Step found nothing queued, and no message came since
	killed  map[partition.WorkerID]bool
	slow    []bool // by link: worker links the walk delivers late
	queue   []any  // the controller's event queue
	jobs    []simJob
	evs     [2][]event // enabled's buffers, reused each turn
	starts  []rejoiner
	script  []action
	log     []byte
	quiet   bool // log nothing

	// delivered sees each message as a worker is handed it, and observe what
	// a worker sent in the event just run (net.sent); both may be nil.
	delivered func(w partition.WorkerID, m protocol.Message) error
	observe   func(w partition.WorkerID) error
	// turn runs before each pick, and request before the controller steps
	// an event of its queue.
	turn    func(event int)
	request func(ev any)
}

// costModel says when each event falls due.
//
// The walk costs nothing: everything enabled is due now, so the clock moves
// only when nothing else is enabled, by one tick, and the walk holds each
// slow link's head seven turns in eight. The conformance and recovery
// schedules run on it.
//
// A timed model is a discrete-event simulation. A send falls due its link's
// latency after the event that sent it ended. A worker's superstep occupies
// the worker, which takes nothing else until it ends, for vertex per vertex
// its report says the query first touched there since its last report
// (ScopeSize's growth; a solo loop's one report covers all its supersteps)
// plus entry per vertex message sent. A controller step occupies the
// controller for step, a job runs for job, and a tick falls due every
// CheckEvery whatever the load. Events due at one instant are ordered by
// the seeded PRNG.
type costModel struct {
	walk bool
	ctl  time.Duration // one-way latency between the controller and a worker
	peer time.Duration // one-way latency between two workers

	vertex, entry, step, job time.Duration
}

var (
	walkModel = costModel{walk: true}
	// paperModel is Sec. 4's network, 125 µs to the controller and 250 µs
	// between workers as across the paper's racks, with this engine's
	// costs: 1 µs per vertex touched (a worker computes a touched vertex
	// about 1.7 times at 0.35–0.4 µs each on a 2-core x86-64 VM); 100 ns
	// per message, 12 bytes at 1 Gbit/s; 2 µs per controller step,
	// BenchmarkMultiWorkerRound's two-worker round; 5 ms per Q-cut run or
	// checkpoint cut.
	paperModel = costModel{ctl: 125 * time.Microsecond, peer: 250 * time.Microsecond,
		vertex: time.Microsecond, entry: 100 * time.Nanosecond, step: 2 * time.Microsecond, job: 5 * time.Millisecond}
)

// simJob is a job the controller handed out and when it reports.
type simJob struct {
	run job
	due time.Duration
}

// action is one step of the script: a caller's request or a kill. It is
// enabled from at, while when (if set) holds; a settled cluster skips an
// action whose when fails.
type action struct {
	at   time.Duration
	name string
	when func() bool
	do   func() error
}

// rejoiner is a replacement for killed worker w, started at at.
type rejoiner struct {
	at time.Duration
	w  partition.WorkerID
}

// newSim builds the controller and k workers over g and owner; mut adjusts
// the controller's config, where any Respawn set stands for the sim's. The
// clock starts at time.Unix(1000, 0).
func newSim(rng *rand.Rand, g *graph.Graph, owner partition.Assignment, k int, mut func(*Config)) (*sim, error) {
	s := &sim{
		rng: rng, start: time.Unix(1_000, 0), g: g, owner: owner, store: snapshot.NewStore("", 0),
		net:     newFifoNet(k + 1),
		workers: make([]*worker.Worker, k), idle: make([]bool, k),
		killed: make(map[partition.WorkerID]bool), model: walkModel, limit: 200_000,
		free: make([]time.Duration, k+1), scope: make(map[wqs]int32),
	}
	cfg := Config{K: k, Graph: g, Owner: owner, HeartbeatEvery: -1, Snapshots: s.store, Clock: s.clock}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg, fifoConn{s.net, protocol.ControllerNode})
	if err != nil {
		return nil, err
	}
	s.c, s.every = c, c.cfg.CheckEvery
	s.tickAt = s.every
	if c.cfg.Respawn != nil {
		c.cfg.Respawn = s.respawn
	}
	s.slow = make([]bool, len(s.net.links))
	for w := range k {
		if err := s.spawn(partition.WorkerID(w), false); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ringSim is a sim over a ring of 32 to 63 vertices with a chord per six,
// weights 1 to 4. Owners are arcs of the ring, so queries run solo for a
// while, with some vertices scattered, so they also cross workers early.
// Half the links between workers are slow on the walk.
func ringSim(rng *rand.Rand, k int, mut func(*Config)) (*sim, error) {
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
	owner := make(partition.Assignment, n)
	for v := range owner {
		owner[v] = partition.WorkerID(v * k / n)
		if rng.IntN(16) == 0 {
			owner[v] = partition.WorkerID(rng.IntN(k))
		}
	}
	s, err := newSim(rng, b.MustBuild(), owner, k, mut)
	if err != nil {
		return nil, err
	}
	for i := range s.slow {
		s.slow[i] = s.net.workerLink(i) && rng.IntN(2) == 0
	}
	return s, nil
}

func (s *sim) clock() time.Time { return s.start.Add(s.now) }

// spawn starts worker w; a rejoining one says hello first, as Worker.Run
// does.
func (s *sim) spawn(w partition.WorkerID, rejoin bool) error {
	conn := fifoConn{s.net, protocol.WorkerNode(w)}
	wk, err := worker.New(worker.Config{
		ID: w, K: len(s.workers), Graph: s.g, Owner: s.owner, Rejoin: rejoin, Snapshots: s.store, Clock: s.clock,
	}, conn)
	if err != nil {
		return err
	}
	s.workers[w], s.idle[w] = wk, true
	if rejoin {
		return conn.Send(protocol.ControllerNode, &protocol.WorkerHello{W: w})
	}
	return nil
}

// respawn is the controller's Config.Respawn: a replacement starts within a
// second, so its hello may miss the window.
func (s *sim) respawn(w partition.WorkerID) {
	s.starts = append(s.starts, rejoiner{s.now + time.Duration(s.rng.IntN(1_000))*time.Millisecond, w})
}

// kill stops worker w: its inbound links are dropped and, if dropOut, its
// undelivered outbound ones.
func (s *sim) kill(w partition.WorkerID, dropOut bool) {
	s.workers[w] = nil
	s.killed[w] = true
	for from := range s.net.n {
		s.net.links[from*s.net.n+int(protocol.WorkerNode(w))] = nil
		if dropOut {
			s.net.links[int(protocol.WorkerNode(w))*s.net.n+from] = nil
		}
	}
	s.logf("kill", "w%d dropOut=%v", w, dropOut)
}

// dead lists the workers the controller should hold dead: the killed ones
// no replacement took over, or all of them once none is left, after which
// no replacement is let in.
func (s *sim) dead() (ws []int) {
	for w := range s.workers {
		if s.c.members.terminal || s.killed[partition.WorkerID(w)] && s.workers[w] == nil {
			ws = append(ws, w)
		}
	}
	return ws
}

// live lists the workers running.
func (s *sim) live() (ws []partition.WorkerID) {
	for w, wk := range s.workers {
		if wk != nil {
			ws = append(ws, partition.WorkerID(w))
		}
	}
	return ws
}

// settled says whether the cluster is done but for the script: the
// respawns, the jobs and the queue are empty, and the controller is in
// phaseRun with no query, commit, cut, plan or recovery in flight, and the
// workers it holds dead are exactly the dead ones.
func (s *sim) settled() bool {
	c := s.c
	dead := map[partition.WorkerID]bool{}
	for _, w := range s.dead() {
		dead[partition.WorkerID(w)] = true
	}
	return len(s.starts) == 0 && len(s.jobs) == 0 && len(s.queue) == 0 &&
		len(c.queries) == 0 && len(c.deferred) == 0 && c.adapt.phase == phaseRun && c.adapt.plan == nil &&
		c.adapt.pull == nil && c.members.since.IsZero() && len(c.commits.ops) == 0 &&
		len(c.commits.sealed) == 0 && c.commits.cut == nil && maps.Equal(c.members.dead, dead)
}

// stalled is how many ticks in a row with nothing else to do mean the
// cluster is stuck.
const stalled = 400

// evKind is the kind of an event the sim can run.
type evKind uint8

const (
	evLink evKind = iota
	evStep
	evQueue
	evWAL
	evJob
	evStart
	evScript
	evTick
)

// event is an enabled event: i is its link, worker, job or respawn.
type event struct {
	kind evKind
	i    int
	due  time.Duration
}

// run runs events until the cluster settled.
func (s *sim) run() error {
	ticks := 0
	for n := 0; ; n++ {
		if n > s.limit {
			return fmt.Errorf("no quiescence after %d events", n)
		}
		if s.turn != nil {
			s.turn(n)
		}
		s.net.sent = s.net.sent[:0]
		evs, held := s.enabled()
		if len(evs) == 0 {
			evs = append(evs, held...)
		}
		if len(evs) == 0 && s.settled() {
			if len(s.script) == 0 {
				return nil
			}
			if s.now >= s.script[0].at {
				s.logf("skip", "%s", s.script[0].name)
				s.script = s.script[1:]
				continue
			}
		}
		tick := event{kind: evTick, due: max(s.tickAt, s.free[protocol.ControllerNode])}
		switch {
		case len(evs) == 0:
			evs = append(evs, tick)
		case s.model.walk:
		case tick.due < evs[0].due:
			evs = append(evs[:0], tick)
		case tick.due == evs[0].due:
			evs = append(evs, tick)
		}
		e := evs[0]
		if len(evs) > 1 || e.kind != evTick {
			e = evs[s.rng.IntN(len(evs))]
		}
		s.evs[0] = evs[:0]
		s.now = e.due
		if e.kind != evTick {
			ticks = 0
		} else if ticks++; ticks > stalled {
			return fmt.Errorf("stalled: %d ticks with nothing else to do (phase %d, %d queries, dead %v)",
				stalled, s.c.adapt.phase, len(s.c.queries), s.c.members.dead)
		}
		if err := s.fire(e); err != nil {
			return err
		}
	}
}

// enabled lists, in a fixed order, the enabled events that fall due first
// (the walk: now), and the slow links' heads the walk holds back this turn.
func (s *sim) enabled() (evs, held []event) {
	evs, held = s.evs[0][:0], s.evs[1][:0]
	add := func(kind evKind, i int, due time.Duration) {
		switch due = max(due, s.now); {
		case s.model.walk && due > s.now:
		case len(evs) == 0 || due < evs[0].due:
			evs = append(evs[:0], event{kind, i, due})
		case due == evs[0].due:
			evs = append(evs, event{kind, i, due})
		}
	}
	for i, l := range s.net.links {
		to := i % s.net.n
		switch {
		case len(l) == 0, to != int(protocol.ControllerNode) && s.workers[protocol.WorkerOf(protocol.NodeID(to))] == nil:
		case s.model.walk && s.slow[i] && s.rng.IntN(8) != 0:
			held = append(held, event{evLink, i, s.now})
		default:
			add(evLink, i, max(l[0].due, s.free[to]))
		}
	}
	for w, ok := range s.idle {
		if !ok && s.workers[w] != nil {
			add(evStep, w, s.free[protocol.WorkerNode(partition.WorkerID(w))])
		}
	}
	if len(s.queue) > 0 {
		add(evQueue, 0, s.free[protocol.ControllerNode])
	}
	if len(s.c.walAckCh) > 0 {
		add(evWAL, 0, s.free[protocol.ControllerNode])
	}
	for i, j := range s.jobs {
		add(evJob, i, j.due)
	}
	for i, r := range s.starts {
		add(evStart, i, r.at)
	}
	if len(s.script) > 0 && (s.script[0].when == nil || s.script[0].when()) {
		add(evScript, 0, s.script[0].at)
	}
	s.evs[1] = held[:0]
	return evs, held
}

// fire runs event e at s.now. Under a timed model the node it ran on stays
// busy until its work ends, and what it sent departs then.
func (s *sim) fire(e event) error {
	node, work := -1, time.Duration(0)
	var err error
	switch e.kind {
	case evLink:
		node = e.i % s.net.n
		if node == int(protocol.ControllerNode) {
			work = s.model.step
		}
		err = s.deliver(e.i)
	case evStep:
		w := partition.WorkerID(e.i)
		node = int(protocol.WorkerNode(w))
		s.logf("step", "w%d", w)
		var ran bool
		if ran, err = s.workers[w].Step(); err == nil {
			s.idle[w] = !ran
			work = s.superstep(w)
			err = s.observed(w)
		}
	case evQueue, evWAL:
		node, work = int(protocol.ControllerNode), s.model.step
		var ev any
		if e.kind == evQueue {
			ev, s.queue = s.queue[0], s.queue[1:]
			if s.request != nil {
				s.request(ev)
			}
		} else {
			ev = <-s.c.walAckCh
		}
		s.logf("event", "%T", ev)
		err = s.c.step(ev)
	case evTick:
		node, work = int(protocol.ControllerNode), s.model.step
		s.tickAt = s.now + s.every
		s.logf("tick", "")
		err = s.c.step(s.clock())
	case evJob:
		j := s.jobs[e.i]
		s.jobs = append(s.jobs[:e.i], s.jobs[e.i+1:]...)
		ev := j.run()
		s.logf("job", "%T", ev)
		s.queue = append(s.queue, ev)
	case evStart:
		r := s.starts[e.i]
		s.starts = append(s.starts[:e.i], s.starts[e.i+1:]...)
		s.logf("respawn", "w%d", r.w)
		err = s.spawn(r.w, true)
	case evScript:
		a := s.script[0]
		s.script = s.script[1:]
		s.logf("script", "%s", a.name)
		err = a.do()
	}
	done := s.now + work
	if node >= 0 {
		s.free[node] = done
	}
	s.stamp(done)
	for _, j := range s.c.jobs {
		s.jobs = append(s.jobs, simJob{j, done + s.model.job})
	}
	s.c.jobs = s.c.jobs[:0]
	return err
}

// superstep is how long worker w's superstep that sent what the sim saw
// last takes.
func (s *sim) superstep(w partition.WorkerID) time.Duration {
	var d time.Duration
	for _, msg := range s.net.sent {
		switch msg := msg.(type) {
		case *protocol.BarrierSynch:
			k := wqs{w: w, q: msg.Q}
			d += time.Duration(max(0, msg.ScopeSize-s.scope[k])) * s.model.vertex
			s.scope[k] = msg.ScopeSize
		case *protocol.VertexBatch:
			d += time.Duration(len(msg.Entries)) * s.model.entry
		}
	}
	return d
}

// stamp sets the due time of every send not yet stamped: its link's
// latency after done.
func (s *sim) stamp(done time.Duration) {
	for _, i := range s.net.fresh {
		lat := s.model.ctl
		if s.net.workerLink(i) {
			lat = s.model.peer
		}
		l := s.net.links[i]
		for j := len(l) - 1; j >= 0 && l[j].due < 0; j-- {
			l[j].due = done + lat
		}
	}
	s.net.fresh = s.net.fresh[:0]
}

// deliver hands link i's head to its receiver.
func (s *sim) deliver(i int) error {
	env := s.net.links[i][0].Envelope
	s.net.links[i] = s.net.links[i][1:]
	to := protocol.NodeID(i % s.net.n)
	q, step := msgQuery(env.Msg)
	s.logf("deliver", "%d→%d %T q%d s%d", env.From, to, env.Msg, q, step)
	if to == protocol.ControllerNode {
		return s.c.step(env)
	}
	w := protocol.WorkerOf(to)
	if s.delivered != nil {
		if err := s.delivered(w, env.Msg); err != nil {
			return err
		}
	}
	s.idle[w] = false
	stop, err := s.workers[w].Handle(env)
	if err != nil {
		return err
	}
	if stop {
		return fmt.Errorf("worker %d shut down", w)
	}
	return s.observed(w)
}

func (s *sim) observed(w partition.WorkerID) error {
	if s.observe == nil {
		return nil
	}
	return s.observe(w)
}

// logf appends one line: virtual time in microseconds, kind, and what.
func (s *sim) logf(kind, format string, args ...any) {
	if s.quiet {
		return
	}
	s.log = fmt.Appendf(s.log, "%d %s ", s.now.Microseconds(), kind)
	s.log = fmt.Appendf(s.log, format, args...)
	s.log = append(s.log, '\n')
}

// msgQuery is the query and superstep a message names, 0 and -1 for none.
func msgQuery(m protocol.Message) (query.ID, int32) {
	switch m := m.(type) {
	case *protocol.ExecuteQuery:
		return m.Spec.ID, -1
	case *protocol.BarrierReady:
		return m.Q, m.Step
	case *protocol.BarrierSynch:
		return m.Q, m.Step
	case *protocol.VertexBatch:
		return m.Q, m.Step
	case *protocol.QueryFinish:
		return m.Q, -1
	case *protocol.MoveScope:
		return m.Q, -1
	case *protocol.ScopeData:
		return m.Q, -1
	case *protocol.MoveAck:
		return m.Q, -1
	}
	return 0, -1
}
