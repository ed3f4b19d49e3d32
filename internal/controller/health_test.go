package controller

import (
	"math/rand/v2"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/obs/health"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// TestStragglerWatchdogLoadedBesideIdle runs PageRank queries on the
// simulator with the health monitor attached. Worker 0 owns all but every
// 50th vertex, and the global barrier releases worker 1 for every
// superstep, which mostly finds nothing to compute. Each report's compute
// is 40 µs plus 10 µs a vertex it processed, so worker 0's frontier steps
// pass the watchdog's 1 ms floor while worker 1's take about 40 µs. Both
// cost the same per vertex: neither may be flagged.
func TestStragglerWatchdogLoadedBesideIdle(t *testing.T) {
	net, err := figNets["BW"]()
	if err != nil {
		t.Fatal(err)
	}
	n := net.G.NumVertices()
	owner := make(partition.Assignment, n)
	for v := 0; v < n; v += 50 {
		owner[v] = 1
	}
	mon := health.New(health.Config{}, nil)
	s, err := newSim(rand.New(rand.NewPCG(1, 2)), net.G, owner, 2, func(cfg *Config) {
		cfg.Mode, cfg.Monitor = SyncGlobal, mon
	})
	if err != nil {
		t.Fatal(err)
	}
	s.model, s.quiet = paperModel, true
	floored := 0 // worker 0's reports past the floor
	s.observe = func(w partition.WorkerID) error {
		for _, m := range s.net.sent {
			if r, ok := m.(*protocol.BarrierSynch); ok {
				r.ComputeNS = int64(40*time.Microsecond + time.Duration(r.Processed)*10*time.Microsecond)
				if w == 0 && r.ComputeNS > int64(r.Step-r.FromStep+1)*int64(time.Millisecond) {
					floored++
				}
			}
		}
		return nil
	}
	const queries = 16
	ch := make(chan Result, queries)
	for i := range queries {
		s.queue = append(s.queue, scheduleReq{spec: query.Spec{ID: query.ID(i + 1), Kind: query.KindPageRank,
			Source: graph.VertexID(s.rng.IntN(n)), Target: graph.NilVertex, MaxIters: 20, Epsilon: 1e-9}, ch: ch})
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	if len(ch) != queries || floored < 10 {
		t.Fatalf("%d of %d queries answered, %d of worker 0's reports past the floor (want at least 10)", len(ch), queries, floored)
	}
	if evs := mon.Events(health.EventFilter{Type: health.EventStraggler}); len(evs) > 0 {
		t.Errorf("a loaded worker beside an idle one was flagged: %v", evs)
	}
}
