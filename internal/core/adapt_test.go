package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/faultpoint"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
	"qgraph/internal/workload"
)

// hotspotSpecs builds a localized SSSP workload with reference answers.
func hotspotSpecs(t testing.TB, net *gen.RoadNet, n int) ([]query.Spec, []float64) {
	t.Helper()
	g := workload.NewRoadGen(net, 99)
	specs := make([]query.Spec, n)
	want := make([]float64, n)
	for i := range specs {
		specs[i] = g.SSSP()
		want[i] = graph.DijkstraTo(net.G, specs[i].Source, specs[i].Target)
	}
	return specs, want
}

func checkResults(t *testing.T, results []controller.Result, specs []query.Spec, want []float64) {
	t.Helper()
	byID := make(map[query.ID]float64, len(specs))
	for i, s := range specs {
		byID[s.ID] = want[i]
	}
	for _, r := range results {
		w := byID[r.Q]
		if math.Abs(r.Value-w) > 1e-6*math.Max(1, w) {
			t.Fatalf("query %d: got %v, want %v (reason %d)", r.Q, r.Value, w, r.Reason)
		}
	}
}

// eagerAdapt turns Q-cut on with a check interval and cooldown that make it
// repartition almost continuously: from Hash, windowed locality starts near
// 0, below Φ, so a short test reliably crosses global barriers.
func eagerAdapt(c *Config) {
	c.Adapt = true
	c.CheckEvery = 5 * time.Millisecond
	c.Cooldown = 10 * time.Millisecond
}

// runWave runs specs through eng and checks every answer against Dijkstra,
// then waits for a repartitioning barrier past epoch before. Q-cut's rounds
// are paced by the wall clock, so a plan the wave started may land after the
// wave: under the race detector one round over a full window takes ~250 ms.
func runWave(t *testing.T, eng *Engine, specs []query.Spec, want []float64, before int64) {
	t.Helper()
	results, err := eng.RunBatch(specs, 16)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	checkResults(t, results, specs, want)
	deadline := time.Now().Add(10 * time.Second)
	for eng.RepartitionEpoch() <= before && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if after := eng.RepartitionEpoch(); after <= before {
		t.Fatalf("no repartitioning barrier after the wave (epoch %d -> %d)", before, after)
	}
}

// TestAdaptiveRepartitioningCorrect drives enough localized queries through
// an aggressively adaptive engine to force repeated Q-cut repartitioning
// barriers mid-stream, and verifies every result still matches Dijkstra —
// moves must never corrupt query state.
// The barriers' scope moves are counted: every barrier that ended with a
// GlobalStart had one MoveAck from a worker per MoveScope the controller
// sent.
func TestAdaptiveRepartitioningCorrect(t *testing.T) {
	net := testRoad(t)
	specs, want := hotspotSpecs(t, net, 160)
	tap := newMoveTap()
	tapped := tapNet{transport.NewChanNetwork(5), tap.see}
	t.Cleanup(func() { tapped.Close() }) // after startEngine's Close
	eng := startEngine(t, net.G, func(c *Config) {
		eagerAdapt(c)
		c.Network = tapped
	})
	runWave(t, eng, specs, want, 0)
	t.Logf("repartitions: %d", eng.RepartitionEpoch())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	moved := 0
	for epoch := range tap.started {
		if acks, moves := tap.acks[epoch], tap.moves[epoch]; acks != moves {
			t.Errorf("barrier %d: %d MoveAcks for %d MoveScope directives", epoch, acks, moves)
		}
		moved += tap.moves[epoch]
	}
	if moved == 0 {
		t.Fatal("no finished barrier moved a scope")
	}
}

// moveTap counts, per barrier epoch, the MoveScope directives the controller
// sends, the MoveAcks the workers send back, and the GlobalStarts that end
// a barrier. Each message is counted before it is sent, so a barrier's
// acks are all counted by the time its GlobalStart is.
type moveTap struct {
	mu      sync.Mutex
	moves   map[int32]int
	acks    map[int32]int
	started map[int32]bool
}

func newMoveTap() *moveTap {
	return &moveTap{moves: make(map[int32]int), acks: make(map[int32]int), started: make(map[int32]bool)}
}

func (n *moveTap) see(_, _ protocol.NodeID, m protocol.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch m := m.(type) {
	case *protocol.MoveScope:
		n.moves[m.Epoch]++
	case *protocol.MoveAck:
		n.acks[m.Epoch]++
	case *protocol.GlobalStart:
		n.started[m.Epoch] = true
	}
}

// tapNet hands see every message a node sends, on the sender's goroutine,
// before the send.
type tapNet struct {
	transport.Network
	see func(from, to protocol.NodeID, m protocol.Message)
}

func (n tapNet) Conn(id protocol.NodeID) transport.Conn {
	return tapConn{Conn: n.Network.Conn(id), from: id, see: n.see}
}

type tapConn struct {
	transport.Conn
	from protocol.NodeID
	see  func(from, to protocol.NodeID, m protocol.Message)
}

func (c tapConn) Send(to protocol.NodeID, m protocol.Message) error {
	c.see(c.from, to, m)
	return c.Conn.Send(to, m)
}

// TestTCPEngineCorrect runs the adaptive workload over real loopback TCP —
// the paper's scale-up deployment (M1/M2) — so global barriers cross
// lazily dialed worker links.
func TestTCPEngineCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test skipped in -short")
	}
	net := testRoad(t)
	specs, want := hotspotSpecs(t, net, 160)
	tcp, err := transport.NewTCPNetwork(5)
	if err != nil {
		t.Fatalf("tcp network: %v", err)
	}
	t.Cleanup(func() { tcp.Close() }) // after startEngine's Close
	eng := startEngine(t, net.G, func(c *Config) {
		eagerAdapt(c)
		c.Network = tcp
	})
	runWave(t, eng, specs, want, 0)
}

// TestAdaptiveImprovesLocality is the engine's wiring of Fig. 6f at test
// scale: from Hash partitioning with the default Φ, adaptive Q-cut must not
// lower the fraction of fully-local query executions. TestFigure6fLocality
// in internal/controller asserts the gain itself, on the simulator.
func TestAdaptiveImprovesLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("locality improvement test skipped in -short")
	}
	net := testRoad(t)
	specs, _ := hotspotSpecs(t, net, 300)

	run := func(adapt bool) float64 {
		eng := startEngine(t, net.G, func(c *Config) {
			c.Adapt = adapt
			c.CheckEvery = 5 * time.Millisecond
			c.Cooldown = 20 * time.Millisecond
		})
		if _, err := eng.RunBatch(specs, 16); err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		// Locality over the last third, once Q-cut had evidence to act on.
		qs := eng.Recorder().Queries()
		tail := qs[len(qs)*2/3:]
		sum := 0.0
		for _, q := range tail {
			sum += q.Locality()
		}
		return sum / float64(len(tail))
	}

	static := run(false)
	adaptive := run(true)
	t.Logf("tail locality: static hash %.3f, adaptive %.3f", static, adaptive)
	if adaptive < static {
		t.Fatalf("adaptive locality %.3f did not improve on static %.3f", adaptive, static)
	}
}

// TestAdaptationContinuesAfterHandoff: Q-cut is live-set-aware — after a
// worker dies and its partition is handed to the survivors, the engine
// keeps repartitioning over the shrunken worker set (it used to freeze
// until every worker rejoined), and every result stays correct.
// TestFigure6fLocality's handoff case checks the same on the simulator.
func TestAdaptationContinuesAfterHandoff(t *testing.T) {
	defer faultpoint.Reset()
	net := testRoad(t)
	specs, want := hotspotSpecs(t, net, 160)
	eng := startEngine(t, net.G, func(c *Config) {
		eagerAdapt(c)
		c.HeartbeatEvery = 5 * time.Millisecond
		c.HeartbeatTimeout = 30 * time.Millisecond
	})
	// A wave must outlast one Q-cut round — backed-off Cooldown, tick,
	// plan — or the assertion below measures the engine's speed: 10 ms a
	// wave unslowed. Every eighth superstep of a query sleeps a
	// millisecond, so a wave takes 160–280 ms and spans 4–9 plans.
	defer faultpoint.Arm(faultpoint.WorkerComputeSlow, func(args ...int) bool {
		if args[2]%8 == 0 {
			time.Sleep(time.Millisecond)
		}
		return false
	})()

	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()

	results, err := eng.RunBatch(specs, 16)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	checkResults(t, results, specs, want)
	select {
	case <-fired:
	default:
		t.Fatal("fault point never fired")
	}

	// Wait out the episode, then measure repartitioning with a dead worker
	// in the set: the second wave must still trigger Q-cut rounds.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h := eng.Health()
		if !h.Recovering && len(h.DeadWorkers) == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := eng.Health(); len(h.DeadWorkers) != 1 {
		t.Fatalf("health after kill = %+v, want one lost worker", h)
	}
	before := eng.RepartitionEpoch()

	specs2, want2 := hotspotSpecs(t, net, 160)
	for i := range specs2 {
		specs2[i].ID += 1000
	}
	runWave(t, eng, specs2, want2, before)
}

// TestGlobalViewIsAWindow drives 20 window-caps of queries through an
// engine and checks that Q-cut's input describes the last cap of them and
// nothing else: the global view is O(window), however long the engine ran.
func TestGlobalViewIsAWindow(t *testing.T) {
	const window = protocol.WindowQueries
	net := testRoad(t)
	gen := workload.NewRoadGen(net, 99)
	specs := make([]query.Spec, 20*window)
	for i := range specs {
		specs[i] = gen.SSSP()
	}
	eng := startEngine(t, net.G, nil)
	if _, err := eng.RunBatch(specs, 16); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	// Every query finished, so the pull behind them sees the last cap of
	// them on every worker.
	in, err := eng.QcutSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Scopes) != window {
		t.Fatalf("%d scope rows with nothing in flight, want the cap %d", len(in.Scopes), window)
	}
	rows := make(map[query.ID]bool, len(in.Scopes))
	for _, row := range in.Scopes {
		rows[row.Q] = true
	}
	if n := len(in.Intersections); n == 0 || n > window*(window-1)/2 {
		t.Fatalf("%d intersections, want 1..%d", n, window*(window-1)/2)
	}
	pairs := make(map[[2]query.ID]bool, len(in.Intersections))
	for _, is := range in.Intersections {
		if !rows[is.Q1] || !rows[is.Q2] || is.Q1 == is.Q2 || is.Shared <= 0 {
			t.Fatalf("intersection %+v does not join two windowed queries", is)
		}
		pair := [2]query.ID{min(is.Q1, is.Q2), max(is.Q1, is.Q2)}
		if pairs[pair] {
			t.Fatalf("pair %v listed twice", pair)
		}
		pairs[pair] = true
	}
}
