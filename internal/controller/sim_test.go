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

// sim is a cluster in one goroutine: a controller and k workers that no Run
// drives, wired by a fifoNet, stepped by a seeded PRNG on a virtual clock
// that both read through Config.Clock. Each turn it picks one enabled event:
//   - a link's head is delivered (a slow link's head is enabled one turn in
//     eight, or when nothing else is);
//   - a live worker runs one queued superstep;
//   - the controller steps the head of its event queue (a caller's request
//     or a job's report) or a WAL completion;
//   - a job the controller handed out runs, and its report joins the queue;
//   - a respawned worker starts, once due;
//   - the script's next action, once due and allowed.
//
// When nothing is enabled and the cluster has not settled, or the script's
// next action is not due, the clock jumps one tick and the controller steps
// it. A kill stops stepping a worker and
// drops its inbound links; sends to it queue for a replacement. Every event
// is logged, so one seed's log is the same bytes every run.
type sim struct {
	rng     *rand.Rand
	start   time.Time
	now     time.Time
	every   time.Duration // Config.CheckEvery: one tick
	g       *graph.Graph
	owner   partition.Assignment
	store   *snapshot.Store
	net     *fifoNet
	c       *Controller
	workers []*worker.Worker // nil while killed
	idle    []bool           // Step found nothing queued, and no message came since
	killed  map[partition.WorkerID]bool
	slow    []bool // by link: worker links that deliver late
	queue   []any  // the controller's event queue
	jobs    []job
	starts  []rejoiner
	script  []action
	log     []byte

	// delivered sees each message as a worker is handed it, and observe what
	// a worker sent in the event just run (net.sent); both may be nil.
	delivered func(w partition.WorkerID, m protocol.Message) error
	observe   func(w partition.WorkerID) error
	// turn runs before each pick, and request before the controller steps
	// an event of its queue.
	turn    func(event int)
	request func(ev any)
}

// action is one step of the script: a caller's request or a kill. It is
// enabled from at, while when (if set) holds; a settled cluster skips an
// action whose when fails.
type action struct {
	at   time.Time
	name string
	when func() bool
	do   func() error
}

// rejoiner is a replacement for killed worker w, started at at.
type rejoiner struct {
	at time.Time
	w  partition.WorkerID
}

// newSim builds the controller and k workers over g and owner; mut adjusts
// the controller's config, where any Respawn set stands for the sim's. The
// clock starts at time.Unix(1000, 0).
func newSim(rng *rand.Rand, g *graph.Graph, owner partition.Assignment, k int, mut func(*Config)) (*sim, error) {
	s := &sim{
		rng: rng, start: time.Unix(1_000, 0), g: g, owner: owner, store: snapshot.NewStore("", 0),
		net:     &fifoNet{n: k + 1, links: make([][]transport.Envelope, (k+1)*(k+1))},
		workers: make([]*worker.Worker, k), idle: make([]bool, k),
		killed: make(map[partition.WorkerID]bool),
	}
	s.now = s.start
	cfg := Config{K: k, Graph: g, Owner: owner, HeartbeatEvery: -1, Snapshots: s.store, Clock: s.clock}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg, fifoConn{s.net, protocol.ControllerNode})
	if err != nil {
		return nil, err
	}
	s.c, s.every = c, c.cfg.CheckEvery
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
// Half the links between workers are slow.
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

func (s *sim) clock() time.Time { return s.now }

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
	s.starts = append(s.starts, rejoiner{s.now.Add(time.Duration(s.rng.IntN(1_000)) * time.Millisecond), w})
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

// run runs events until the cluster settled.
func (s *sim) run() error {
	ticks := 0
	for event := 0; ; event++ {
		if event > 200_000 {
			return fmt.Errorf("no quiescence after %d events", event)
		}
		if s.turn != nil {
			s.turn(event)
		}
		s.net.sent = s.net.sent[:0]
		var links, held []int
		for i, l := range s.net.links {
			switch to := i % s.net.n; {
			case len(l) == 0, to != int(protocol.ControllerNode) && s.workers[protocol.WorkerOf(protocol.NodeID(to))] == nil:
			case s.slow[i] && s.rng.IntN(8) != 0:
				held = append(held, i)
			default:
				links = append(links, i)
			}
		}
		var steps []int
		for w, ok := range s.idle {
			if !ok && s.workers[w] != nil {
				steps = append(steps, w)
			}
		}
		var starts []int
		for i, r := range s.starts {
			if !s.now.Before(r.at) {
				starts = append(starts, i)
			}
		}
		ctl := 0 // the controller's queue head and a WAL completion
		if len(s.queue) > 0 {
			ctl++
		}
		if len(s.c.walAckCh) > 0 {
			ctl++
		}
		script := 0
		if len(s.script) > 0 && !s.now.Before(s.script[0].at) && (s.script[0].when == nil || s.script[0].when()) {
			script = 1
		}
		n := len(links) + len(steps) + ctl + len(s.jobs) + len(starts) + script
		if n == 0 && len(held) > 0 {
			links, n = held, len(held)
		}
		if n == 0 && s.settled() {
			if len(s.script) == 0 {
				return nil
			}
			if !s.now.Before(s.script[0].at) {
				s.logf("skip", "%s", s.script[0].name)
				s.script = s.script[1:]
				continue
			}
		}
		if n == 0 {
			if ticks++; ticks > stalled {
				return fmt.Errorf("stalled: %d ticks with nothing else to do (phase %d, %d queries, dead %v)",
					stalled, s.c.adapt.phase, len(s.c.queries), s.c.members.dead)
			}
			s.now = s.now.Add(s.every)
			s.logf("tick", "")
			if err := s.c.step(s.now); err != nil {
				return err
			}
			s.took()
			continue
		}
		ticks = 0
		if err := s.pick(s.rng.IntN(n), links, steps, starts, ctl); err != nil {
			return err
		}
	}
}

// pick runs enabled event i of run's enumeration.
func (s *sim) pick(i int, links, steps, starts []int, ctl int) error {
	switch {
	case i < len(links):
		return s.deliver(links[i])
	case i < len(links)+len(steps):
		w := partition.WorkerID(steps[i-len(links)])
		s.logf("step", "w%d", w)
		ran, err := s.workers[w].Step()
		if err != nil {
			return err
		}
		s.idle[w] = !ran
		return s.observed(w)
	}
	i -= len(links) + len(steps)
	switch {
	case i < ctl:
		var ev any
		if i == 0 && len(s.queue) > 0 {
			ev, s.queue = s.queue[0], s.queue[1:]
			if s.request != nil {
				s.request(ev)
			}
		} else {
			ev = <-s.c.walAckCh
		}
		s.logf("event", "%T", ev)
		if err := s.c.step(ev); err != nil {
			return err
		}
		s.took()
		return nil
	case i < ctl+len(s.jobs):
		j := s.jobs[i-ctl]
		s.jobs = append(s.jobs[:i-ctl], s.jobs[i-ctl+1:]...)
		ev := j()
		s.logf("job", "%T", ev)
		s.queue = append(s.queue, ev)
		return nil
	case i < ctl+len(s.jobs)+len(starts):
		k := starts[i-ctl-len(s.jobs)]
		r := s.starts[k]
		s.starts = append(s.starts[:k], s.starts[k+1:]...)
		s.logf("respawn", "w%d", r.w)
		return s.spawn(r.w, true)
	}
	a := s.script[0]
	s.script = s.script[1:]
	s.logf("script", "%s", a.name)
	err := a.do()
	s.took()
	return err
}

// deliver hands link i's head to its receiver.
func (s *sim) deliver(i int) error {
	env := s.net.links[i][0]
	s.net.links[i] = s.net.links[i][1:]
	to := protocol.NodeID(i % s.net.n)
	q, step := msgQuery(env.Msg)
	s.logf("deliver", "%d→%d %T q%d s%d", env.From, to, env.Msg, q, step)
	if to == protocol.ControllerNode {
		err := s.c.step(env)
		s.took()
		return err
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

// took moves the jobs the controller's last step handed out to the sim.
func (s *sim) took() {
	s.jobs = append(s.jobs, s.c.jobs...)
	s.c.jobs = s.c.jobs[:0]
}

// logf appends one line: virtual time, kind, and what.
func (s *sim) logf(kind, format string, args ...any) {
	s.log = fmt.Appendf(s.log, "%d %s ", s.now.Sub(s.start).Milliseconds(), kind)
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
