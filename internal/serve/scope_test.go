package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// This file checks the rule the result cache lives by, end to end and in
// process (ChanNetwork, three workers): an answer computed at version p is
// the answer at every later version whose batches changed no out-edge of a
// vertex in its scope's blocks. After every commit, each entry the cache
// kept is compared with a fresh no_cache execution and with the sequential
// reference at the new version, and each entry it dropped must share a block
// with the batch. Scopes are compared with the reference too: the blocks an
// execution reports must cover every vertex it had to read, also when a
// Q-cut barrier moved its scope or a worker died under it mid-query.

// propertyRuns rotates the seeds: every invocation of the test in one
// process (go test -count=N) takes the next five.
var propertyRuns atomic.Uint64

func TestScopeInvalidationProperty(t *testing.T) {
	first := 5*propertyRuns.Add(1) - 4
	for seed := first; seed < first+5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { scopeProperty(t, seed) })
	}
}

// scopeRoad is a 1 600-vertex road map (26 blocks) with POI tags.
func scopeRoad(t *testing.T, seed uint64) *gen.RoadNet {
	net, err := gen.Road(gen.RoadConfig{
		CellsX: 40, CellsY: 40, CellKM: 0.5, Jitter: 0.3,
		RemoveProb: 0.08, DiagProb: 0.05,
		HighwayEvery: 8, LocalSpeed: 50, HighwaySpeed: 110,
		NumCities: 4, ZipfS: 1, TagProb: 0.02, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// scopeRun is one seed's deployment and the reference it is judged by.
type scopeRun struct {
	t   *testing.T
	rng *rand.Rand
	eng *core.Engine
	srv *Server
	h   http.Handler
	// ref replays every acknowledged batch; cur is its standalone graph.
	ref  *delta.View
	cur  *graph.Graph
	pool []query.Spec
}

func scopeProperty(t *testing.T, seed uint64) {
	defer faultpoint.Reset()
	net := scopeRoad(t, seed)
	cfg := core.Config{
		Workers: 3, Graph: net.G, Partitioner: partition.Hash{},
		// Every POST seals its own version at once.
		CommitEvery: time.Millisecond, MaxBatchOps: 1, CheckEvery: 2 * time.Millisecond,
		// A killed worker is missed within a third of a second; a starved
		// one (-race on a busy box) is not mistaken for dead.
		HeartbeatEvery: 20 * time.Millisecond, HeartbeatTimeout: 300 * time.Millisecond,
	}
	adapt := seed%2 == 0
	if adapt {
		// Q-cut repartitions almost continuously (from Hash, locality
		// starts below Φ), so its barriers cross queries in flight.
		cfg.Adapt = true
		cfg.CheckEvery, cfg.Cooldown = 5*time.Millisecond, 10*time.Millisecond
	}
	eng, err := core.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			t.Errorf("engine: %v", err)
		}
	}()
	srv, err := New(Config{Backend: eng.Controller(), CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r := &scopeRun{
		t: t, rng: rand.New(rand.NewPCG(seed, 0x5c09e)), eng: eng, srv: srv, h: srv.Handler(),
		ref: delta.NewView(net.G), cur: net.G,
	}
	r.fillPool(24)

	const rounds = 10
	for round := 0; round < rounds; round++ {
		var fired chan struct{}
		if round == rounds/2 {
			// Whichever worker runs the next superstep dies in it (Q-cut may
			// have left any one of them without a vertex) — four queries no
			// cache has seen make sure there is one — and the queries in
			// flight restart on the two survivors.
			r.fillPool(len(r.pool) + 4)
			fired = make(chan struct{})
			var once sync.Once
			defer faultpoint.Arm(faultpoint.WorkerSuperstep, func(...int) (kill bool) {
				once.Do(func() { close(fired); kill = true })
				return kill
			})()
		}
		r.readPool()
		if fired != nil {
			select {
			case <-fired:
			default:
				t.Fatal("no worker ran a superstep of a whole pool: the kill exercised nothing")
			}
			r.awaitRecovered()
		}
		before := r.entries()
		if len(before) < len(r.pool)/2 {
			t.Fatalf("round %d: %d of %d pool answers cached", round, len(before), len(r.pool))
		}
		// Whatever happened to the executions — a barrier moved their
		// scope, a worker died under them — and however many commits the
		// entries have outlived, their blocks cover what the reference
		// says an execution at this version reads.
		for key, out := range before {
			if why := refOf(r.cur, specOf(key)).covers(out.Blocks); why != "" {
				t.Fatalf("round %d, %s %d→%d cached at version %d: %s", round, key.Kind, key.Source, key.Target, out.Version, why)
			}
		}
		batch := r.batch(round, before)
		r.commit(batch)
		r.checkAfterCommit(round, before, batch)
	}
	if st := srv.cache.Stats(); st.Flushes != 0 || st.Hits == 0 {
		t.Fatalf("cache stats %+v: want hits and no whole-cache flush", st)
	}
	if adapt {
		// Recovery counts as one repartition; the rest are Q-cut's.
		if moves := eng.RepartitionEpoch() - eng.RecoveryStats().Recoveries; moves < 1 {
			t.Fatalf("Q-cut executed %d barriers: no scope ever moved", moves)
		}
	}
}

func specOf(key Key) query.Spec {
	return query.Spec{Kind: key.Kind, Source: key.Source, Target: key.Target, MaxIters: key.MaxIters, Epsilon: key.Epsilon}
}

// fillPool grows the pool to n distinct queries of all four kinds.
func (r *scopeRun) fillPool(n int) {
	seen := make(map[Key]bool)
	for _, spec := range r.pool {
		seen[KeyOf(spec)] = true
	}
	for len(r.pool) < n {
		nv := r.cur.NumVertices()
		spec := query.Spec{Source: graph.VertexID(r.rng.IntN(nv)), Target: graph.NilVertex}
		switch len(r.pool) % 4 {
		case 0:
			spec.Kind, spec.Target = query.KindSSSP, graph.VertexID(r.rng.IntN(nv))
		case 1:
			spec.Kind, spec.Target = query.KindBFS, graph.VertexID(r.rng.IntN(nv))
		case 2:
			spec.Kind = query.KindPOI
		case 3:
			spec.Kind, spec.MaxIters, spec.Epsilon = query.KindPageRank, 8, 1e-3
		}
		if spec.Source == spec.Target || seen[KeyOf(spec)] {
			continue
		}
		seen[KeyOf(spec)] = true
		r.pool = append(r.pool, spec)
	}
}

func (r *scopeRun) post(path string, body any) *httptest.ResponseRecorder {
	raw, err := json.Marshal(body)
	if err != nil {
		r.t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return rec
}

// ask runs spec through POST /query and returns the answer with the version
// its header names.
func (r *scopeRun) ask(spec query.Spec, noCache bool) (QueryResponse, uint64, error) {
	req := QueryRequest{Kind: spec.Kind.String(), Source: int64(spec.Source),
		MaxIters: spec.MaxIters, Epsilon: spec.Epsilon, NoCache: noCache}
	if spec.Target != graph.NilVertex {
		req.Target = ptr(int64(spec.Target))
	}
	rec := r.post("/query", req)
	var qr QueryResponse
	if rec.Code != http.StatusOK {
		return qr, 0, fmt.Errorf("%s %d→%d: status %d: %s", spec.Kind, spec.Source, spec.Target, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		return qr, 0, err
	}
	v, err := strconv.ParseUint(rec.Header().Get(VersionHeader), 10, 64)
	return qr, v, err
}

// reference is what the sequential algorithms say about spec on g: the
// answer, and the vertices any execution must have read the out-edges of —
// all of the scope for PageRank, for the others every vertex nearer than
// the goal (a nearer vertex unrelaxed would still hold a message that could
// beat the goal, and the query would not have stopped).
type reference struct {
	value   float64 // graph.Inf: no goal reached
	touched int     // -1: not determined by the reference
	scope   []graph.VertexID
	exact   bool // scope is the whole scope, not a part of it
}

func refOf(g *graph.Graph, spec query.Spec) reference {
	if spec.Kind == query.KindPageRank {
		scores := query.RefPageRank(g, spec)
		ref := reference{value: graph.Inf, touched: len(scores), exact: true}
		for v := range scores {
			ref.scope = append(ref.scope, v)
		}
		return ref
	}
	var dist []float64
	if spec.Kind == query.KindBFS {
		hops := graph.BFSHops(g, spec.Source)
		dist = make([]float64, len(hops))
		for v, h := range hops {
			if dist[v] = float64(h); h < 0 {
				dist[v] = graph.Inf
			}
		}
	} else {
		dist = graph.Dijkstra(g, spec.Source)
	}
	ref := reference{value: graph.Inf, touched: -1}
	if spec.Kind == query.KindPOI {
		_, ref.value = graph.NearestTagged(g, spec.Source)
	} else {
		ref.value = dist[spec.Target]
	}
	for v, d := range dist {
		if d < ref.value || graph.VertexID(v) == spec.Source {
			ref.scope = append(ref.scope, graph.VertexID(v))
		}
	}
	return ref
}

// show prints an answer's value.
func show(v *float64) string {
	if v == nil {
		return "none"
	}
	return strconv.FormatFloat(*v, 'g', -1, 64)
}

// agree reports how qr departs from ref, or "".
func (ref reference) agree(qr QueryResponse) string {
	switch {
	case ref.value == graph.Inf && qr.Value != nil:
		return fmt.Sprintf("value %v, reference reaches no goal", *qr.Value)
	case ref.value != graph.Inf && (qr.Value == nil || math.Abs(*qr.Value-ref.value) > 1e-9*math.Max(1, ref.value)):
		return fmt.Sprintf("value %s, reference %v", show(qr.Value), ref.value)
	case ref.touched >= 0 && qr.Touched != ref.touched:
		return fmt.Sprintf("touched %d vertices, reference %d", qr.Touched, ref.touched)
	}
	return ""
}

// covers reports how blocks fail to cover the reference scope, or "".
func (ref reference) covers(blocks []int32) string {
	want := make([]int32, 0, len(ref.scope))
	for _, v := range ref.scope {
		want = append(want, protocol.BlockOf(v))
	}
	slices.Sort(want)
	want = slices.Compact(want)
	for _, b := range want {
		if _, ok := slices.BinarySearch(blocks, b); !ok {
			return fmt.Sprintf("blocks %v miss block %d of the reference scope %v", blocks, b, want)
		}
	}
	if ref.exact && len(blocks) != len(want) {
		return fmt.Sprintf("blocks %v, the reference scope is exactly %v", blocks, want)
	}
	return ""
}

// readPool asks every pool query, four at a time so that barriers and kills
// meet queries in flight, and checks each answer — hit or executed — against
// the reference at the version it names, which is the current one: nothing
// commits meanwhile.
func (r *scopeRun) readPool() {
	want := r.eng.GraphVersion()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4) // queries in flight
	for _, spec := range r.pool {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			qr, v, err := r.ask(spec, false)
			if err != nil {
				r.t.Error(err)
				return
			}
			if v != want {
				r.t.Errorf("%s %d→%d (hit=%v): served at version %d, committed is %d",
					spec.Kind, spec.Source, spec.Target, qr.CacheHit, v, want)
			}
			if why := refOf(r.cur, spec).agree(qr); why != "" {
				r.t.Errorf("%s %d→%d (hit=%v) at version %d: %s", spec.Kind, spec.Source, spec.Target, qr.CacheHit, v, why)
			}
		}()
	}
	wg.Wait()
	if r.t.Failed() {
		r.t.FailNow()
	}
}

func (r *scopeRun) awaitRecovered() {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h := r.eng.Health(); r.eng.RecoveryStats().Recoveries >= 1 && !h.Recovering && !h.Degraded {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.t.Fatalf("recovery did not settle: health=%+v stats=%+v", r.eng.Health(), r.eng.RecoveryStats())
}

// entries copies what the cache holds.
func (r *scopeRun) entries() map[Key]Outcome {
	c := r.srv.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Key]Outcome, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		en := el.Value.(*entry)
		out[en.key] = en.out
	}
	return out
}

// batch draws 1–8 ops of all four kinds whose sources lie around one place,
// as a client's writes do (spread over the map they would leave no entry to
// judge). Some rounds also aim: at an out-edge of a cached query's source (an
// edge inside its scope), or at a vertex of the last block of a cached scope.
func (r *scopeRun) batch(round int, cached map[Key]Outcome) []delta.Op {
	nv := r.cur.NumVertices()
	anyV := func() graph.VertexID { return graph.VertexID(r.rng.IntN(nv)) }
	centre := r.rng.IntN(nv)
	near := func() graph.VertexID {
		return graph.VertexID(min(max(centre-96+r.rng.IntN(192), 0), nv-1))
	}
	var victim Outcome
	var victimKey Key
	for k, out := range cached { // any entry: map order is random enough
		victimKey, victim = k, out
		break
	}
	var ops []delta.Op
	edgeOp := func(kind delta.OpKind, from graph.VertexID) {
		out := r.ref.Out(from)
		if len(out) == 0 {
			return
		}
		e := out[r.rng.IntN(len(out))]
		ops = append(ops, delta.Op{Kind: kind, From: from, To: e.To, Weight: e.Weight * float32(0.25+1.5*r.rng.Float64())})
	}
	switch round % 3 {
	case 1:
		edgeOp(delta.OpRemoveEdge, victimKey.Source)
	case 2:
		last := victim.Blocks[len(victim.Blocks)-1]
		from := graph.VertexID(min(int(last)<<protocol.SigShift+r.rng.IntN(1<<protocol.SigShift), nv-1))
		edgeOp(delta.OpSetWeight, from)
	}
	for n := 1 + r.rng.IntN(8); len(ops) < n; {
		switch p := r.rng.IntN(10); {
		case p < 3:
			ops = append(ops, delta.Op{Kind: delta.OpAddEdge, From: near(), To: anyV(), Weight: float32(1 + 60*r.rng.Float64())})
		case p < 5:
			edgeOp(delta.OpRemoveEdge, near())
		case p < 8:
			edgeOp(delta.OpSetWeight, near())
		case p < 9:
			ops = append(ops, delta.Op{Kind: delta.OpAddVertex})
		default:
			// A vertex with a way in and a way out, and a query from it.
			v := graph.VertexID(nv)
			nv++
			ops = append(ops, delta.Op{Kind: delta.OpAddVertex},
				delta.Op{Kind: delta.OpAddEdge, From: near(), To: v, Weight: 5},
				delta.Op{Kind: delta.OpAddEdge, From: v, To: anyV(), Weight: 5})
			r.pool = append(r.pool, query.Spec{Kind: query.KindSSSP, Source: v, Target: anyV()})
		}
	}
	return ops
}

// commit posts the batch, waits for its acknowledgement and replays it on
// the reference.
func (r *scopeRun) commit(ops []delta.Op) {
	wire := make([]MutateOp, len(ops))
	for i, o := range ops {
		wire[i] = MutateOp{Op: o.Kind.String(), From: int64(o.From), To: int64(o.To), Weight: float64(o.Weight)}
	}
	rec := r.post("/mutate", MutateRequest{Ops: wire})
	if rec.Code != http.StatusOK {
		r.t.Fatalf("mutate: %d %s", rec.Code, rec.Body)
	}
	next, _, err := r.ref.Apply(ops)
	if err != nil {
		r.t.Fatal(err)
	}
	r.ref, r.cur = next, next.Materialize()
	if got := r.eng.GraphVersion(); got != r.ref.Version() {
		r.t.Fatalf("engine at version %d, reference at %d", got, r.ref.Version())
	}
}

// checkAfterCommit judges what the commit did to the entries cached before
// it.
func (r *scopeRun) checkAfterCommit(round int, before map[Key]Outcome, batch []delta.Op) {
	var touched []int32
	for _, op := range batch {
		if op.Kind != delta.OpAddVertex {
			touched = append(touched, protocol.BlockOf(op.From))
		}
	}
	after := r.entries()
	kept := 0
	for key, was := range before {
		spec := specOf(key)
		name := fmt.Sprintf("round %d, %s %d→%d cached at version %d", round, spec.Kind, spec.Source, spec.Target, was.Version)
		hit := slices.ContainsFunc(touched, func(b int32) bool {
			_, in := slices.BinarySearch(was.Blocks, b)
			return in
		})
		if _, ok := after[key]; !ok {
			if !hit {
				r.t.Errorf("%s: evicted, but its blocks %v hold none of the batch's %v", name, was.Blocks, touched)
			}
			continue
		}
		kept++
		if hit {
			r.t.Errorf("%s: kept, though the batch changed out-edges in its blocks (%v ∩ %v)", name, was.Blocks, touched)
		}
		// The entry as a hit would serve it now.
		cached := QueryResponse{Touched: was.Touched}
		if was.Value != query.NoResult {
			cached.Value = &was.Value
		}
		if why := refOf(r.cur, spec).agree(cached); why != "" {
			r.t.Errorf("%s: kept, but at version %d the %s", name, r.ref.Version(), why)
		}
		fresh, v, err := r.ask(spec, true)
		if err != nil {
			r.t.Error(err)
			continue
		}
		// A global barrier that crosses a goal query can delay its early
		// termination (a worker a scope moved to loops on without the goal
		// its predecessor found), so how much such a run touched is its own
		// business; with no barrier so far, executions replay exactly.
		sameRun := fresh.Touched == was.Touched || r.eng.RepartitionEpoch() > 0
		if v != r.ref.Version() || !sameRun || (fresh.Value == nil) != (cached.Value == nil) ||
			(fresh.Value != nil && *fresh.Value != was.Value) {
			r.t.Errorf("%s: kept (value %s, touched %d), a fresh execution at version %d gives value %s, touched %d",
				name, show(cached.Value), was.Touched, v, show(fresh.Value), fresh.Touched)
		}
	}
	if r.t.Failed() {
		r.t.FailNow()
	}
	r.t.Logf("round %d: %d ops into blocks %v, %d of %d entries kept", round, len(batch), touched, kept, len(before))
}

// TestHitNeverOlderThanWhatClientsKnow is the benchmark's oracle under the
// race detector: readers and a writer share one clock of versions — the
// newest any response has named — and every read must be served at or after
// the version known when it was sent (a hit that named its pin instead would
// not be), with an answer that is the reference's at some version in between.
func TestHitNeverOlderThanWhatClientsKnow(t *testing.T) {
	net := scopeRoad(t, 3)
	eng, err := core.Start(core.Config{
		Workers: 2, Graph: net.G, Partitioner: partition.Hash{},
		CommitEvery: time.Millisecond, MaxBatchOps: 1, CheckEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			t.Errorf("engine: %v", err)
		}
	}()
	srv, err := New(Config{Backend: eng.Controller()})
	if err != nil {
		t.Fatal(err)
	}
	r := &scopeRun{t: t, rng: rand.New(rand.NewPCG(3, 3)), eng: eng, srv: srv, h: srv.Handler(), cur: net.G}
	r.fillPool(32)

	// The one writer's batches are versions 1, 2, … in the order it posts
	// them, so graphs[v] is known before anyone can be served at v.
	const commits = 120
	var mu sync.Mutex
	graphs := []*graph.Graph{net.G}
	var known atomic.Uint64 // newest version any response named
	learn := func(v uint64) {
		for old := known.Load(); v > old && !known.CompareAndSwap(old, v); old = known.Load() {
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i += 2 {
				select {
				case <-done:
					return
				default:
				}
				spec := r.pool[i%len(r.pool)]
				saw := known.Load()
				qr, v, err := r.ask(spec, false)
				if err != nil {
					t.Error(err)
					return
				}
				learn(v)
				if v < saw {
					t.Errorf("%s %d→%d (hit=%v) served at version %d, clients already knew %d",
						spec.Kind, spec.Source, spec.Target, qr.CacheHit, v, saw)
					return
				}
				mu.Lock()
				span := graphs[saw : v+1]
				mu.Unlock()
				if !slices.ContainsFunc(span, func(g *graph.Graph) bool { return refOf(g, spec).agree(qr) == "" }) {
					t.Errorf("%s %d→%d (hit=%v) served at version %d, sent knowing %d: the answer is the reference's at none of them",
						spec.Kind, spec.Source, spec.Target, qr.CacheHit, v, saw)
					return
				}
			}
		}()
	}
	view := delta.NewView(net.G)
	for v := uint64(1); v <= commits && !t.Failed(); v++ {
		from := graph.VertexID(700 + r.rng.IntN(128)) // two blocks of the map's middle
		out := view.Out(from)
		e := out[r.rng.IntN(len(out))]
		ops := []delta.Op{{Kind: delta.OpSetWeight, From: from, To: e.To, Weight: e.Weight * float32(0.5+r.rng.Float64())}}
		if view, _, err = view.Apply(ops); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		graphs = append(graphs, view.Materialize())
		mu.Unlock()
		rec := r.post("/mutate", MutateRequest{Ops: []MutateOp{{Op: "set_weight", From: int64(from), To: int64(e.To), Weight: float64(ops[0].Weight)}}})
		if rec.Code != http.StatusOK || rec.Header().Get(VersionHeader) != strconv.FormatUint(v, 10) {
			t.Fatalf("commit %d: status %d at version %q", v, rec.Code, rec.Header().Get(VersionHeader))
		}
		learn(v)
		time.Sleep(time.Millisecond) // a commit per read or two, as in mixed_rw
	}
	close(done)
	wg.Wait()
	if st := srv.cache.Stats(); st.Hits == 0 || st.Flushes != 0 {
		t.Fatalf("cache stats %+v: want hits under writes and no whole-cache flush", st)
	}
}
