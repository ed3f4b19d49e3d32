package controller

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
)

// killPlan is how a recovery schedule kills workers.
type killPlan int

const (
	oneKill      killPlan = iota
	twoKills              // the second before any tick can notice the first
	killRecovery          // the second while a recovery round is open
)

func (p killPlan) String() string { return [...]string{"one", "two", "inRecovery"}[p] }

// scheduleRow is one configuration TestRecoverySchedules runs over many
// seeds.
type scheduleRow struct {
	k       int
	kills   killPlan
	respawn bool
	adapt   bool
}

// TestRecoverySchedules runs a whole cluster on the sim while its workers
// die: queries arrive in bursts, distance-neutral mutations commit and cut
// checkpoints, callers cancel queries in flight, and with adapt set the
// controller's own trigger pulls statistics, runs Q-cut as a job and
// executes its plan under the global barrier. Kills come as oneKill,
// twoKills or killRecovery says; a killed worker's undelivered sends are
// dropped on a seeded choice, and with respawn set a replacement rejoins
// within a second, possibly after the hello window. On every schedule:
//   - every answer equals the sequential reference, or is the cancel its
//     caller asked for;
//   - every Mutate resolves exactly once, at contiguous versions;
//   - once settled, the controller is in phaseRun, Health.DeadWorkers lists
//     exactly the killed workers no replacement took over, MVCCStats shows
//     no pin and one live version, every running replica is at the last
//     commit, and a fresh query is answered correctly;
//   - with every worker dead, the controller is degraded and everything
//     unanswered failed.
//
// The first seed of every row runs twice, and its two logs are the same
// bytes.
func TestRecoverySchedules(t *testing.T) {
	const seeds = 25
	for _, k := range []int{2, 3} {
		for _, kills := range []killPlan{oneKill, twoKills, killRecovery} {
			for _, respawn := range []bool{false, true} {
				for _, adapt := range []bool{false, true} {
					row := scheduleRow{k, kills, respawn, adapt}
					t.Run(fmt.Sprintf("k%d/kills=%s/respawn=%v/adapt=%v", k, kills, respawn, adapt), func(t *testing.T) {
						plans, skipped := 0, 0
						for seed := uint64(1); seed <= seeds; seed++ {
							r := row.run(t, seed)
							if r.c.adapt.raised != noPlan {
								plans++
							}
							if bytes.Contains(r.log, []byte(" skip kill")) {
								skipped++
							}
							if seed > 1 {
								continue
							}
							if again := row.run(t, seed); !bytes.Equal(r.log, again.log) {
								t.Fatalf("seed %d ran twice with two logs:\n%s", seed, firstDiff(r.log, again.log))
							}
						}
						// Or the row tests less than it says.
						if adapt && plans < seeds/4 {
							t.Fatalf("%d seeds of %d executed a Q-cut plan", plans, seeds)
						}
						if skipped > seeds/4 {
							t.Fatalf("the kill in recovery missed its round on %d seeds of %d", skipped, seeds)
						}
					})
				}
			}
		}
	}
}

// run runs one schedule of the row and checks it.
func (row scheduleRow) run(t *testing.T, seed uint64) *sim {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
	}
	rng := rand.New(rand.NewPCG(seed, uint64(row.k)<<8|uint64(row.kills)<<4|boolBits(row.respawn, row.adapt)))
	s, err := ringSim(rng, row.k, func(cfg *Config) {
		cfg.Adapt, cfg.Cooldown = row.adapt, 200*time.Millisecond
		cfg.CheckEvery, cfg.HeartbeatEvery, cfg.HeartbeatTimeout = 25*time.Millisecond, 50*time.Millisecond, 150*time.Millisecond
		cfg.MaxBatchOps, cfg.CommitEvery = 4, 100*time.Millisecond
		cfg.SnapshotPolicy = snapshot.Policy{EveryOps: 6}
		if row.respawn {
			cfg.Respawn = func(partition.WorkerID) {}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	n := s.g.NumVertices()
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

	// Sixteen queries in bursts of four, 100ms apart, a third of them BFS.
	var specs []query.Spec
	var results []chan Result
	for i := range 16 {
		spec := query.Spec{ID: query.ID(i + 1), Kind: query.KindSSSP, Source: graph.VertexID(rng.IntN(n)), Target: graph.VertexID(rng.IntN(n))}
		if rng.IntN(3) == 0 {
			spec.Kind, spec.Target = query.KindBFS, graph.NilVertex
		}
		ch := make(chan Result, 2) // room to see a second answer
		specs, results = append(specs, spec), append(results, ch)
		s.script = append(s.script, action{at: at(i / 4 * 100), name: fmt.Sprintf("schedule %d", spec.ID), do: func() error {
			s.queue = append(s.queue, scheduleReq{spec: spec, ch: ch})
			return nil
		}})
	}
	// Six mutations and two cancels at random times; muts is in call order.
	var muts []chan MutationResult
	for range 6 {
		s.script = append(s.script, action{at: at(rng.IntN(400)), name: "mutate", do: func() error {
			ch := make(chan MutationResult, 2)
			muts = append(muts, ch)
			s.queue = append(s.queue, mutateReq{ops: distanceNeutralOps(), ch: ch})
			return nil
		}})
	}
	// A cancel that finds its query executing or deferred must end it.
	cancelled, mustCancel := map[query.ID]bool{}, map[query.ID]bool{}
	s.request = func(ev any) {
		if q, ok := ev.(cancelReq); ok && (s.c.queries[query.ID(q)] != nil ||
			slices.ContainsFunc(s.c.deferred, func(d scheduleReq) bool { return d.spec.ID == query.ID(q) })) {
			mustCancel[query.ID(q)] = true
		}
	}
	for range 2 {
		q := query.ID(1 + rng.IntN(len(specs)))
		cancelled[q] = true
		s.script = append(s.script, action{at: at(int(q-1)/4*100 + rng.IntN(100)), name: fmt.Sprintf("cancel %d", q), do: func() error {
			s.queue = append(s.queue, cancelReq(q))
			return nil
		}})
	}
	// The kills, after everything else due by then.
	first := at(rng.IntN(400))
	kill := func() error {
		if live := s.live(); len(live) > 0 {
			s.kill(live[rng.IntN(len(live))], rng.IntN(2) == 0)
		}
		return nil
	}
	s.script = append(s.script, action{at: first, name: "kill", do: kill})
	switch row.kills {
	case twoKills:
		s.script = append(s.script, action{at: first, name: "kill", do: kill})
	case killRecovery:
		s.script = append(s.script, action{at: first, name: "kill in recovery", do: kill,
			when: func() bool { return s.c.adapt.phase == phaseRecover }})
	}
	slices.SortStableFunc(s.script, func(a, b action) int { return cmp.Compare(a.at, b.at) })

	if err := s.run(); err != nil {
		fail("%v\n%s", err, tail(s.log))
	}
	terminal := s.c.members.terminal
	for i, spec := range specs {
		if len(results[i]) != 1 {
			fail("query %d answered %d times", spec.ID, len(results[i]))
		}
		res := <-results[i]
		switch {
		case res.Reason == protocol.FinishCancelled && cancelled[spec.ID]:
		case res.Reason == protocol.FinishWorkerLost && terminal:
		case mustCancel[spec.ID]:
			fail("query %d cancelled while it executed ended %v\n%s", spec.ID, res.Reason, tail(s.log))
		default:
			if err := s.answered(spec, res); err != nil {
				fail("%v\n%s", err, tail(s.log))
			}
		}
	}
	version := uint64(0)
	for i, ch := range muts {
		if len(ch) != 1 {
			fail("mutation %d resolved %d times", i, len(ch))
		}
		res := <-ch
		switch {
		case res.Err != nil && terminal:
		case res.Err != nil:
			fail("mutation %d: %v", i, res.Err)
		case res.Version != version && res.Version != version+1:
			fail("mutation %d at version %d after version %d", i, res.Version, version)
		default:
			version = res.Version
		}
	}
	if v := s.c.GraphVersion(); v != version {
		fail("graph at version %d, the last mutation at %d", v, version)
	}
	if h := s.c.Health(); !slices.Equal(h.DeadWorkers, s.dead()) || h.Degraded != terminal || h.Recovering {
		fail("health %+v, want dead workers %v, degraded %v", h, s.dead(), terminal)
	}
	if st := s.c.MVCCStats(); st.Pinned != 0 || st.Live != 1 {
		fail("settled with %+v", st)
	}
	// Every replica running is at the last commit. A terminal controller
	// holds every worker dead, respawned ones too, and commits nothing.
	for w, wk := range s.workers {
		if wk != nil && !terminal && wk.View().Version() != version {
			fail("worker %d at version %d, the last mutation at %d", w, wk.View().Version(), version)
		}
	}

	// A fresh query.
	spec := query.Spec{ID: 100, Kind: query.KindSSSP, Source: graph.VertexID(rng.IntN(n)), Target: graph.VertexID(rng.IntN(n))}
	ch := make(chan Result, 1)
	s.queue = append(s.queue, scheduleReq{spec: spec, ch: ch})
	if err := s.run(); err != nil {
		fail("fresh query: %v\n%s", err, tail(s.log))
	}
	res := <-ch
	if terminal {
		if res.Reason != protocol.FinishWorkerLost {
			fail("with no worker left, a fresh query ended %v", res.Reason)
		}
	} else if err := s.answered(spec, res); err != nil {
		fail("fresh query: %v", err)
	}
	return s
}

// answered checks res against the reference answer to spec on the base
// graph, which distance-neutral mutations never change.
func (s *sim) answered(spec query.Spec, res Result) error {
	switch spec.Kind {
	case query.KindBFS:
		reach := 0
		for _, h := range graph.BFSHops(s.g, spec.Source) {
			if h >= 0 {
				reach++
			}
		}
		if res.Reason != protocol.FinishConverged || res.Touched != reach {
			return fmt.Errorf("BFS %d from %d: %v touching %d, want converged touching %d", spec.ID, spec.Source, res.Reason, res.Touched, reach)
		}
	case query.KindSSSP:
		if want := graph.DijkstraTo(s.g, spec.Source, spec.Target); res.Value != want {
			return fmt.Errorf("SSSP %d %d→%d: %v (%v), want %v", spec.ID, spec.Source, spec.Target, res.Value, res.Reason, want)
		}
	}
	return nil
}

// distanceNeutralOps is a mutation that changes no distance between
// existing vertices: a new vertex and a self-loop.
func distanceNeutralOps() []delta.Op {
	return []delta.Op{{Kind: delta.OpAddVertex}, {Kind: delta.OpAddEdge, From: 0, To: 0, Weight: 1 << 14}}
}

func boolBits(a, b bool) uint64 {
	var x uint64
	if a {
		x |= 1
	}
	if b {
		x |= 2
	}
	return x
}

// tail is the last lines of a log, for a failure message.
func tail(log []byte) string {
	lines := bytes.Split(bytes.TrimSpace(log), []byte{'\n'})
	return string(bytes.Join(lines[max(0, len(lines)-40):], []byte{'\n'}))
}

// firstDiff shows where two logs part.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte{'\n'}), bytes.Split(b, []byte{'\n'})
	for i := range min(len(la), len(lb)) {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n%s\n%s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one log is %d lines, the other %d", len(la), len(lb))
}
