package controller

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	"qgraph/internal/workload"
)

// The paper's figures (Sec. 4) as tests on the sim's paper cost model. A
// figure runs a scaled road network with 16 queries in flight, from a
// seeded hotspot workload (workload.NewRoadGen), under the strategies it
// compares; prints its table under -v; and checks the direction the paper
// states on every seed of figSeeds.

// figSeeds are the seeds every direction must hold on.
var figSeeds = []uint64{1, 2, 3}

const (
	figInFlight = 16  // queries in flight, as in Sec. 4.1
	figQueries  = 512 // queries per run
	figK        = 8   // workers, as in Figs. 5 and 6
)

// strategy is one partitioning the figures compare: a start assignment,
// and whether Q-cut adapts it at run time.
type strategy struct {
	name   string
	domain bool // Domain's regions around the cities, or Hash
	adapt  bool
}

var (
	hashStrategy       = strategy{"hash", false, false}
	hashQcutStrategy   = strategy{"hash+qcut", false, true}
	domainStrategy     = strategy{"domain", true, false}
	domainQcutStrategy = strategy{"domain+qcut", true, true}
	strategies         = []strategy{hashStrategy, hashQcutStrategy, domainStrategy, domainQcutStrategy}
)

// figNets are the scaled road networks: BW and GY at 1/512 and 1/3200 of
// the paper's vertex counts, about 3.5 k vertices each.
var figNets = map[string]func() (*gen.RoadNet, error){
	"BW": sync.OnceValues(func() (*gen.RoadNet, error) { return gen.Road(gen.BWConfig(512)) }),
	"GY": sync.OnceValues(func() (*gen.RoadNet, error) { return gen.Road(gen.GYConfig(3200)) }),
}

// figWorkload is a seed's queries: SSSP or POI, figQueries of them unless
// queries says otherwise, and for Fig. 5 a quarter as many inter-urban SSSP
// queries after them (the paper: 2048 and 496). With kill, the last worker
// dies for good after the killAfter-th answer, and heartbeats find it.
type figWorkload struct {
	net     string
	kind    query.Kind
	disturb bool
	queries int
	kill    bool
}

const killAfter = 300

func (w figWorkload) specs(net *gen.RoadNet, seed uint64) []query.Spec {
	g, n := workload.NewRoadGen(net, seed), cmp.Or(w.queries, figQueries)
	if w.kind == query.KindPOI {
		return workload.Batch(n, g.POI)
	}
	specs := workload.Batch(n, g.SSSP)
	if w.disturb {
		specs = append(specs, workload.Batch(n/4, g.InterUrban)...)
	}
	return specs
}

// figKey names one run.
type figKey struct {
	figWorkload
	k    int
	st   strategy
	mode SyncMode
	seed uint64
}

// figRun is what one run measured.
type figRun struct {
	latencies []time.Duration // by completion
	locality  []float64       // LocalIters / Supersteps, by completion
	sum       time.Duration
	releases  int   // the controller's rounds, over all queries
	trips     int   // BarrierReady → BarrierSynch round trips: releases by workers
	local     int   // queries that ran on one worker
	plans     int   // executed plans: global barriers but recovery rounds
	planAt    []int // the answers in when each plan executed
	log       []byte

	// With kill: the plans executed once the death was declared, the moves
	// Q-cut planned and the MoveScope directives sent since that name the
	// dead worker, and the workers Health lists dead at the end.
	plansAfter, movesToDead int
	dead                    []int
}

// tail is the mean locality of the last third of the queries.
func (r figRun) tail() float64 {
	tail := r.locality[len(r.locality)*2/3:]
	sum := 0.0
	for _, l := range tail {
		sum += l
	}
	return sum / float64(len(tail))
}

func (r figRun) perQuery(n int) string {
	return strconv.FormatFloat(float64(n)/float64(len(r.latencies)), 'f', 2, 64)
}

var (
	figMu   sync.Mutex
	figRuns = map[figKey]figRun{}
)

// runs makes every run of keys not made yet, as many at once as there are
// CPUs, and returns all of them. A run is made once per test binary.
func runs(t *testing.T, keys []figKey) map[figKey]figRun {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(keys))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	figMu.Lock()
	for _, key := range keys {
		if _, ok := figRuns[key]; ok {
			continue
		}
		figRuns[key] = figRun{} // claimed
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, err := key.run(true)
			figMu.Lock()
			defer figMu.Unlock()
			if err != nil {
				delete(figRuns, key)
				errs <- fmt.Errorf("%+v: %w", key, err)
				return
			}
			figRuns[key] = r
		}()
	}
	figMu.Unlock()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	figMu.Lock()
	defer figMu.Unlock()
	out := make(map[figKey]figRun, len(keys))
	for _, key := range keys {
		out[key] = figRuns[key]
	}
	return out
}

// run runs key's workload on the paper model with figInFlight queries in
// flight, checking every answer against the reference; quiet keeps no log.
func (key figKey) run(quiet bool) (figRun, error) {
	var r figRun
	net, err := figNets[key.net]()
	if err != nil {
		return r, err
	}
	var part partition.Partitioner = partition.Hash{}
	if key.st.domain {
		centers := make([]graph.Coord, len(net.Cities))
		weights := make([]float64, len(net.Cities))
		for i, c := range net.Cities {
			centers[i], weights[i] = c.Center, c.Pop
		}
		part = partition.NewDomain(centers, weights)
	}
	owner, err := part.Partition(net.G, key.k)
	if err != nil {
		return r, err
	}
	s, err := newSim(rand.New(rand.NewPCG(key.seed, uint64(key.k))), net.G, owner, key.k, func(cfg *Config) {
		cfg.Mode, cfg.Adapt, cfg.Seed = key.mode, key.st.adapt, key.seed
		// About half a query's latency between checks, ten between plans.
		cfg.CheckEvery, cfg.Cooldown = time.Millisecond, 20*time.Millisecond
		if key.kill {
			cfg.HeartbeatEvery, cfg.HeartbeatTimeout = 5*time.Millisecond, 30*time.Millisecond
		}
	})
	if err != nil {
		return r, err
	}
	specs := key.specs(net, key.seed)
	s.model, s.quiet, s.limit = paperModel, quiet, 200*len(specs)*key.k*key.k
	results := make(chan Result, len(specs))
	next := 0
	schedule := func() {
		s.queue = append(s.queue, scheduleReq{spec: specs[next], ch: results})
		next++
	}
	for next < figInFlight {
		schedule()
	}
	victim, declared := partition.WorkerID(key.k-1), -1 // declared: plans when its death was
	handed := 0                                         // s.jobs seen by turn
	plans := func() int { return int(s.c.RepartitionEpoch() - s.c.RecoveryStats().Recoveries) }
	released := map[query.ID]int32{} // each query's last released step, plus one
	s.delivered = func(_ partition.WorkerID, m protocol.Message) error {
		if m, ok := m.(*protocol.BarrierReady); ok {
			if released[m.Q] != m.Step+1 {
				released[m.Q] = m.Step + 1
				r.releases++
			}
			r.trips++
		}
		return nil
	}
	s.turn = func(int) {
		for len(results) > 0 && err == nil {
			res := <-results
			r.latencies = append(r.latencies, res.Latency)
			r.locality = append(r.locality, float64(res.LocalIters)/float64(res.Supersteps))
			r.sum += res.Latency
			if res.Workers == 1 {
				r.local++
			}
			spec, want := specs[res.Q-1], 0.0
			if spec.Kind == query.KindPOI {
				_, want = graph.NearestTagged(net.G, spec.Source)
			} else {
				want = graph.DijkstraTo(net.G, spec.Source, spec.Target)
			}
			if res.Value != want {
				err = fmt.Errorf("%s from %d = %v (%v), want %v", spec.Kind, spec.Source, res.Value, res.Reason, want)
			}
			if next < len(specs) {
				schedule()
			}
		}
		if p := plans(); p > len(r.planAt) {
			r.planAt = append(r.planAt, len(r.latencies))
		}
		if !key.kill {
			return
		}
		if len(r.latencies) >= killAfter && !s.killed[victim] {
			s.kill(victim, false)
		}
		if declared < 0 && s.c.members.dead[victim] {
			declared = plans()
		}
		fresh := s.jobs[min(handed, len(s.jobs)):] // less one if the last event ran a job
		handed = len(s.jobs)
		if declared < 0 {
			return
		}
		for _, m := range s.net.sent {
			if m, ok := m.(*protocol.MoveScope); ok && m.To == victim {
				r.movesToDead++
			}
		}
		// The jobs the last event handed out: a Q-cut run's plan, from a
		// snapshot taken since the death, must not name the dead worker
		// either, though the barrier would drop such a move.
		for i := range fresh {
			job := fresh[i].run
			fresh[i].run = func() any {
				ev := job()
				if res, ok := ev.(qcut.Result); ok {
					for _, mv := range res.Moves {
						if mv.To == victim {
							r.movesToDead++
						}
					}
				}
				return ev
			}
		}
	}
	if err := s.run(); err != nil {
		return r, err
	}
	s.turn(0)
	if err == nil && len(r.latencies) != len(specs) {
		err = fmt.Errorf("%d of %d queries answered", len(r.latencies), len(specs))
	}
	r.plans, r.log = plans(), s.log
	if key.kill {
		r.plansAfter, r.dead = r.plans-declared, s.c.Health().DeadWorkers
		if declared < 0 {
			r.plansAfter = 0
		}
	}
	return r, err
}

// direction is a claim a figure makes, checked on every seed. A direction
// that does not hold yet names the ROADMAP item that owns it as finding: it
// is logged, not asserted, and the test fails once it holds on every seed,
// so that it is asserted from then on.
type direction struct {
	claim   string
	holds   func(seed uint64) bool
	finding string
}

func check(t *testing.T, seeds []uint64, dirs []direction) {
	t.Helper()
	for _, d := range dirs {
		var failed []uint64
		for _, seed := range seeds {
			if !d.holds(seed) {
				failed = append(failed, seed)
			}
		}
		switch {
		case d.finding == "" && len(failed) > 0:
			t.Errorf("%s: fails on seeds %v", d.claim, failed)
		case d.finding != "" && len(failed) == 0:
			t.Errorf("%s: holds on every seed now; assert it (drop %q)", d.claim, d.finding)
		case d.finding != "":
			t.Logf("unmet (%s): %s: fails on seeds %v", d.finding, d.claim, failed)
		}
	}
}

// table logs a table under -v.
func table(t *testing.T, title string, header []string, rows [][]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString(title)
	for _, row := range append([][]string{header}, rows...) {
		b.WriteByte('\n')
		for _, cell := range row {
			fmt.Fprintf(&b, "%-13s", cell)
		}
	}
	t.Log(b.String())
}

func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Microseconds())/1000, 'f', 1, 64)
}

func pct(a, b time.Duration) string { return fmt.Sprintf("%+.1f%%", 100*(float64(a)/float64(b)-1)) }

// TestFigure6SummedLatency is Figs. 6a–c: the summed latency of an SSSP
// workload on BW and GY and of a POI workload on BW under the four
// strategies, at k = 8. The paper: Q-cut −43 % / −13 % / −50 % against
// Hash and −22 % / −25 % / −28 % against Domain, and up to 57 % less
// latency (Sec. 4).
func TestFigure6SummedLatency(t *testing.T) {
	ratio := map[uint64]float64{} // the better Q-cut strategy's sum / Hash's, the lowest of Figs. 6a–c
	for _, fig := range []struct {
		id string
		figWorkload
	}{{"6a", figWorkload{net: "BW", kind: query.KindSSSP}}, {"6b", figWorkload{net: "GY", kind: query.KindSSSP}},
		{"6c", figWorkload{net: "BW", kind: query.KindPOI}}} {
		t.Run(fig.id, func(t *testing.T) {
			key := func(st strategy, seed uint64) figKey { return figKey{fig.figWorkload, figK, st, SyncHybrid, seed} }
			var keys []figKey
			for _, seed := range figSeeds {
				for _, st := range strategies {
					keys = append(keys, key(st, seed))
				}
			}
			got := runs(t, keys)
			sum := func(st strategy, seed uint64) time.Duration { return got[key(st, seed)].sum }
			for _, seed := range figSeeds {
				var rows [][]string
				for _, st := range strategies {
					r := got[key(st, seed)]
					rows = append(rows, []string{st.name, ms(r.sum), pct(r.sum, sum(hashStrategy, seed)), pct(r.sum, sum(domainStrategy, seed)),
						r.perQuery(r.local), r.perQuery(r.releases), fmt.Sprint(r.plans)})
				}
				table(t, fmt.Sprintf("Fig. %s: %s on %s, k = %d, seed %d", fig.id, fig.kind, fig.net, figK, seed),
					[]string{"strategy", "sum_ms", "vs_hash", "vs_domain", "one_worker", "rounds/q", "plans"}, rows)
			}
			best := func(seed uint64) time.Duration {
				return min(sum(hashQcutStrategy, seed), sum(domainQcutStrategy, seed))
			}
			for _, seed := range figSeeds {
				r := float64(best(seed)) / float64(sum(hashStrategy, seed))
				if old, ok := ratio[seed]; !ok || r < old {
					ratio[seed] = r
				}
			}
			check(t, figSeeds, []direction{
				{claim: "the better Q-cut strategy sums less latency than static Hash",
					holds: func(seed uint64) bool { return best(seed) < sum(hashStrategy, seed) }},
				{claim: "the better Q-cut strategy sums less latency than static Domain",
					holds: func(seed uint64) bool { return best(seed) < sum(domainStrategy, seed) }, finding: "ROADMAP 31"},
			})
		})
	}
	for _, seed := range figSeeds {
		t.Logf("seed %d: the better Q-cut strategy's summed latency is %.3f × static Hash's at best in Figs. 6a–c", seed, ratio[seed])
	}
	check(t, figSeeds, []direction{
		{claim: "in one of Figs. 6a–c the better Q-cut strategy sums at most 0.43 × static Hash's latency (Sec. 4: up to 57 % less)",
			holds: func(seed uint64) bool { r, ok := ratio[seed]; return ok && r <= 0.43 }, finding: "ROADMAP 31"},
	})
}

// TestFigure6fLocality is Fig. 6f: query locality from static Hash and
// from Hash+Q-cut with the default Φ, SSSP on BW at k = 4, 1 500 queries,
// seeds 1–10. A query's locality is LocalIters / Supersteps; a run's tail
// locality, the mean over the last third of its queries. The paper: Q-cut
// raises locality from 38 % to about 80 %. And the handoff case, on seeds
// 1–3: worker 3 dies for good after the 300th answer, and Q-cut keeps
// planning over the three survivors, never onto the dead one.
func TestFigure6fLocality(t *testing.T) {
	const k = 4
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	w := figWorkload{net: "BW", kind: query.KindSSSP, queries: 1500}
	handoff := w
	handoff.kill = true
	key := func(w figWorkload, st strategy, seed uint64) figKey { return figKey{w, k, st, SyncHybrid, seed} }
	var keys []figKey
	for _, seed := range seeds {
		keys = append(keys, key(w, hashStrategy, seed), key(w, hashQcutStrategy, seed))
	}
	for _, seed := range figSeeds {
		keys = append(keys, key(handoff, hashQcutStrategy, seed))
	}
	got := runs(t, keys)
	static := func(seed uint64) figRun { return got[key(w, hashStrategy, seed)] }
	qcut := func(seed uint64) figRun { return got[key(w, hashQcutStrategy, seed)] }
	var rows [][]string
	for _, seed := range seeds {
		rows = append(rows, []string{fmt.Sprint(seed), fmt.Sprintf("%.3f", static(seed).tail()), fmt.Sprintf("%.3f", qcut(seed).tail()),
			fmt.Sprint(qcut(seed).plans), fmt.Sprint(qcut(seed).planAt)})
	}
	table(t, fmt.Sprintf("Fig. 6f: sssp on BW, k = %d, %d queries, tail locality", k, w.queries),
		[]string{"seed", "hash", "hash+qcut", "plans", "plan_at"}, rows)
	check(t, seeds, []direction{
		{claim: "Q-cut's tail locality is at least static Hash's + 0.03",
			holds: func(seed uint64) bool { return qcut(seed).tail() >= static(seed).tail()+0.03 }},
		{claim: "Q-cut executes at least 3 plans",
			holds: func(seed uint64) bool { return qcut(seed).plans >= 3 }},
		{claim: "Q-cut's tail locality is at least static Hash's + 0.3",
			holds: func(seed uint64) bool { return qcut(seed).tail() >= static(seed).tail()+0.3 }, finding: "ROADMAP 31(c)"},
	})

	dead := func(seed uint64) figRun { return got[key(handoff, hashQcutStrategy, seed)] }
	rows = nil
	for _, seed := range figSeeds {
		r := dead(seed)
		rows = append(rows, []string{fmt.Sprint(seed), fmt.Sprintf("%.3f", r.tail()), fmt.Sprint(r.plans), fmt.Sprint(r.plansAfter),
			fmt.Sprint(r.movesToDead), fmt.Sprint(r.dead)})
	}
	table(t, fmt.Sprintf("Fig. 6f, handoff: worker %d dies after answer %d", k-1, killAfter),
		[]string{"seed", "hash+qcut", "plans", "after_death", "moves_to_it", "dead"}, rows)
	check(t, figSeeds, []direction{
		{claim: "Health lists exactly the killed worker dead",
			holds: func(seed uint64) bool { return slices.Equal(dead(seed).dead, []int{k - 1}) }},
		{claim: "Q-cut executes a plan after the death is declared",
			holds: func(seed uint64) bool { return dead(seed).plansAfter >= 1 }},
		{claim: "no Q-cut plan or MoveScope after the death names the dead worker",
			holds: func(seed uint64) bool { return dead(seed).movesToDead == 0 }},
	})
}

// TestFigure6dBarriers is Fig. 6d with the local-barrier ablation: SSSP on
// BW under the hybrid barrier (Sec. 3.3), the limited one (every superstep
// a controller round among the workers it involves, no solo loop) and a
// global BSP barrier, on static Hash and Domain. The paper: the hybrid
// barrier is 1.2–1.7× faster than the global one on both. A round is a
// release of one superstep; a round trip, one worker's part in it. No Hash
// query runs on one worker, so the three barriers release the same rounds
// there and differ in the workers each involves.
func TestFigure6dBarriers(t *testing.T) {
	w := figWorkload{net: "BW", kind: query.KindSSSP}
	modes := []SyncMode{SyncHybrid, SyncLimited, SyncGlobal}
	parts := []strategy{hashStrategy, domainStrategy}
	key := func(st strategy, mode SyncMode, seed uint64) figKey { return figKey{w, figK, st, mode, seed} }
	var keys []figKey
	for _, seed := range figSeeds {
		for _, st := range parts {
			for _, mode := range modes {
				keys = append(keys, key(st, mode, seed))
			}
		}
	}
	got := runs(t, keys)
	for _, seed := range figSeeds {
		var rows [][]string
		for _, st := range parts {
			global := got[key(st, SyncGlobal, seed)].sum
			for _, mode := range modes {
				r := got[key(st, mode, seed)]
				rows = append(rows, []string{st.name, mode.String(), ms(r.sum), fmt.Sprintf("%.2fx", float64(global)/float64(r.sum)),
					r.perQuery(r.releases), r.perQuery(r.trips)})
			}
		}
		table(t, fmt.Sprintf("Fig. 6d: sssp on BW, k = %d, seed %d", figK, seed),
			[]string{"partition", "barrier", "sum_ms", "speedup", "rounds/q", "trips/q"}, rows)
	}
	var dirs []direction
	for _, st := range parts {
		run := func(mode SyncMode, seed uint64) figRun { return got[key(st, mode, seed)] }
		dirs = append(dirs,
			direction{claim: st.name + ": the global barrier sums more latency than the hybrid one",
				holds: func(seed uint64) bool { return run(SyncGlobal, seed).sum > run(SyncHybrid, seed).sum }},
			direction{claim: st.name + ": the global barrier takes more round trips per query than the hybrid one",
				holds: func(seed uint64) bool { return run(SyncGlobal, seed).trips > run(SyncHybrid, seed).trips }},
			direction{claim: st.name + ": the limited barrier sits between the hybrid and the global one",
				holds: func(seed uint64) bool {
					h, l, g := run(SyncHybrid, seed), run(SyncLimited, seed), run(SyncGlobal, seed)
					return h.sum <= l.sum && l.sum <= g.sum && h.trips <= l.trips && l.trips <= g.trips
				}})
	}
	dirs = append(dirs, direction{claim: "domain: the global barrier takes more rounds per query than the hybrid one",
		holds: func(seed uint64) bool {
			return got[key(domainStrategy, SyncGlobal, seed)].releases > got[key(domainStrategy, SyncHybrid, seed)].releases
		}}, direction{claim: "domain: the hybrid barrier sums less latency than the limited one",
		holds: func(seed uint64) bool {
			return got[key(domainStrategy, SyncHybrid, seed)].sum < got[key(domainStrategy, SyncLimited, seed)].sum
		}})
	check(t, figSeeds, dirs)
}

// TestFigure7Scalability is Figs. 7a and 7b: summed SSSP and POI latency on
// BW at k = 2, 4 and 8 (k = 16 waits for ROADMAP 21). The paper: the Q-cut
// strategies keep improving as k grows, where Hash degrades past k = 8.
func TestFigure7Scalability(t *testing.T) {
	ks := []int{2, 4, 8}
	for _, fig := range []struct {
		id   string
		kind query.Kind
	}{{"7a", query.KindSSSP}, {"7b", query.KindPOI}} {
		t.Run(fig.id, func(t *testing.T) {
			w := figWorkload{net: "BW", kind: fig.kind}
			key := func(st strategy, k int, seed uint64) figKey { return figKey{w, k, st, SyncHybrid, seed} }
			var keys []figKey
			for _, seed := range figSeeds {
				for _, k := range ks {
					for _, st := range strategies {
						keys = append(keys, key(st, k, seed))
					}
				}
			}
			got := runs(t, keys)
			for _, seed := range figSeeds {
				var rows [][]string
				for _, k := range ks {
					row := []string{fmt.Sprint(k)}
					for _, st := range strategies {
						row = append(row, ms(got[key(st, k, seed)].sum))
					}
					rows = append(rows, row)
				}
				table(t, fmt.Sprintf("Fig. %s: summed %s latency (ms) on BW, seed %d", fig.id, fig.kind, seed),
					[]string{"k", "hash", "hash+qcut", "domain", "domain+qcut"}, rows)
			}
			var dirs []direction
			for _, st := range []strategy{hashQcutStrategy, domainQcutStrategy} {
				dirs = append(dirs, direction{claim: st.name + "'s summed latency falls as k grows from 2 to 4 to 8",
					holds: func(seed uint64) bool {
						for i := 1; i < len(ks); i++ {
							if got[key(st, ks[i], seed)].sum >= got[key(st, ks[i-1], seed)].sum {
								return false
							}
						}
						return true
					}, finding: "ROADMAP 31"})
			}
			check(t, figSeeds, dirs)
		})
	}
}

// TestFigure5OverTime prints Figs. 5a and 5b: mean SSSP latency per tenth
// of the workload on BW and GY, its last fifth inter-urban queries (the
// paper's disturbance), normalized to static Hash in the same tenth. The
// paper: Q-cut up to −49 % / −40 % against Hash / Domain on BW, −45 % /
// −30 % on GY. Nothing is asserted: the summed directions are Fig. 6's.
func TestFigure5OverTime(t *testing.T) {
	for _, fig := range []struct{ id, net string }{{"5a", "BW"}, {"5b", "GY"}} {
		t.Run(fig.id, func(t *testing.T) {
			w := figWorkload{net: fig.net, kind: query.KindSSSP, disturb: true}
			key := func(st strategy) figKey { return figKey{w, figK, st, SyncHybrid, figSeeds[0]} }
			var keys []figKey
			for _, st := range strategies {
				keys = append(keys, key(st))
			}
			got := runs(t, keys)
			tenths := func(r figRun) (out [10]time.Duration) {
				for i, l := range r.latencies {
					out[i*10/len(r.latencies)] += l
				}
				return out
			}
			hash := tenths(got[key(hashStrategy)])
			var rows [][]string
			for i := range hash {
				row := []string{fmt.Sprint(i + 1)}
				for _, st := range strategies {
					row = append(row, fmt.Sprintf("%.2f", float64(tenths(got[key(st)])[i])/float64(hash[i])))
				}
				rows = append(rows, row)
			}
			table(t, fmt.Sprintf("Fig. %s: sssp on %s, latency per tenth / hash's, k = %d, seed %d", fig.id, fig.net, figK, figSeeds[0]),
				[]string{"tenth", "hash", "hash+qcut", "domain", "domain+qcut"}, rows)
		})
	}
}

// TestPaperModel pins the paper cost model on one SSSP query along a path
// that worker 0 owns whole, with k = 2: under the hybrid barrier it runs
// in worker 0's local loop and makes no controller round trip before it
// finishes; under the global barrier every superstep is a round with both
// workers, 2 × 125 µs more per superstep. And one seed of a figure run,
// Q-cut plans included, repeats byte for byte.
func TestPaperModel(t *testing.T) {
	const n = 6
	run := func(mode SyncMode) (Result, int) {
		t.Helper()
		s, err := newSim(rand.New(rand.NewPCG(1, 1)), lineGraph(n), make(partition.Assignment, n), 2, func(cfg *Config) { cfg.Mode = mode })
		if err != nil {
			t.Fatal(err)
		}
		s.model = paperModel
		trips := 0
		s.delivered = func(_ partition.WorkerID, m protocol.Message) error {
			if _, ok := m.(*protocol.BarrierReady); ok {
				trips++
			}
			return nil
		}
		ch := make(chan Result, 1)
		s.queue = append(s.queue, scheduleReq{spec: query.Spec{ID: 1, Kind: query.KindSSSP, Source: 0, Target: n - 1}, ch: ch})
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		res := <-ch
		if res.Value != n-1 {
			t.Fatalf("%s: distance %v, want %d", mode, res.Value, n-1)
		}
		return res, trips
	}
	m := paperModel
	hybrid, trips := run(SyncHybrid)
	// The controller's step that schedules the query, the release's flight,
	// n vertices computed, the report's flight; the answer is delivered from
	// the step that takes the report.
	if want := m.step + 2*m.ctl + n*m.vertex; trips != 1 || hybrid.Latency != want {
		t.Errorf("hybrid: %d round trips and latency %v, want 1 and %v", trips, hybrid.Latency, want)
	}
	global, trips := run(SyncGlobal)
	steps := time.Duration(global.Supersteps)
	if trips != 2*global.Supersteps || global.Supersteps != hybrid.Supersteps {
		t.Errorf("global: %d round trips over %d supersteps, want two per superstep and %d", trips, global.Supersteps, hybrid.Supersteps)
	}
	// Each superstep after the first costs a round trip, and at most the
	// steps that take the two workers' reports.
	if lo, d := (steps-1)*2*m.ctl, global.Latency-hybrid.Latency; d < lo || d > lo+(steps-1)*2*m.step {
		t.Errorf("global: latency %v over %d supersteps, %v more than hybrid's, want %v more and at most %v of steps",
			global.Latency, global.Supersteps, d, lo, (steps-1)*2*m.step)
	}
	t.Logf("hybrid %v, global %v, %d supersteps", hybrid.Latency, global.Latency, global.Supersteps)

	key := figKey{figWorkload{net: "BW", kind: query.KindSSSP}, 4, hashQcutStrategy, SyncHybrid, figSeeds[0]}
	a, err := key.run(false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := key.run(false)
	if err != nil {
		t.Fatal(err)
	}
	if a.plans == 0 || !bytes.Equal(a.log, b.log) {
		t.Fatalf("%d plans; the seed ran twice with two logs:\n%s", a.plans, firstDiff(a.log, b.log))
	}
}
