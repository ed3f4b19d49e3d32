package query

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"qgraph/internal/graph"
)

// diamondGraph: 0 → {1,2} → 3 with asymmetric weights.
func diamondGraph() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 5)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	b.SetTags([]bool{false, false, true, true})
	return b.MustBuild()
}

// runSequential executes a program in a simple single-node BSP loop — a
// miniature reference engine used to test program semantics in isolation.
func runSequential(g graph.View, spec Spec) (values map[graph.VertexID]float64, steps int) {
	prog := MustNew(spec.Kind)
	values = make(map[graph.VertexID]float64)
	inbox := make(map[graph.VertexID]float64)
	for _, a := range prog.Init(g, spec) {
		if old, ok := inbox[a.V]; ok {
			inbox[a.V] = prog.Combine(old, a.Msg)
		} else {
			inbox[a.V] = a.Msg
		}
	}
	for len(inbox) > 0 && (spec.MaxIters == 0 || steps < spec.MaxIters) {
		next := make(map[graph.VertexID]float64)
		emit := func(to graph.VertexID, msg float64) {
			if old, ok := next[to]; ok {
				next[to] = prog.Combine(old, msg)
			} else {
				next[to] = msg
			}
		}
		for v, msg := range inbox {
			old, hasOld := values[v]
			if nv, changed := prog.Compute(g, spec, v, old, hasOld, msg, emit); changed {
				values[v] = nv
			}
		}
		inbox = next
		steps++
	}
	return values, steps
}

func TestSSSPOnDiamond(t *testing.T) {
	g := diamondGraph()
	vals, _ := runSequential(g, Spec{ID: 1, Kind: KindSSSP, Source: 0, Target: 3})
	want := map[graph.VertexID]float64{0: 0, 1: 1, 2: 5, 3: 2}
	for v, w := range want {
		if vals[v] != w {
			t.Fatalf("dist[%d] = %v, want %v", v, vals[v], w)
		}
	}
}

// TestSSSPMatchesDijkstraSequential: the vertex program computes true
// shortest paths on random graphs (property-based).
func TestSSSPMatchesDijkstraSequential(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 10))
		n := 40 + rng.IntN(60)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddBiEdge(graph.VertexID(rng.IntN(v)), graph.VertexID(v), float32(rng.Float64()*5+0.1))
		}
		for e := 0; e < n; e++ {
			b.AddEdge(graph.VertexID(rng.IntN(n)), graph.VertexID(rng.IntN(n)), float32(rng.Float64()*5+0.1))
		}
		g := b.MustBuild()
		src := graph.VertexID(rng.IntN(n))
		vals, _ := runSequential(g, Spec{ID: 1, Kind: KindSSSP, Source: src, Target: graph.NilVertex})
		ref := graph.Dijkstra(g, src)
		for v := 0; v < n; v++ {
			got, ok := vals[graph.VertexID(v)]
			if !ok {
				got = math.MaxFloat64
			}
			want := ref[v]
			if want == graph.Inf {
				want = math.MaxFloat64
			}
			if math.Abs(got-want) > 1e-9*(1+want) && got != want {
				t.Logf("vertex %d: %v vs %v", v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSHopSemantics(t *testing.T) {
	g := diamondGraph()
	vals, steps := runSequential(g, Spec{ID: 1, Kind: KindBFS, Source: 0, Target: graph.NilVertex})
	if vals[3] != 2 || vals[1] != 1 || vals[0] != 0 {
		t.Fatalf("hops = %v", vals)
	}
	if steps != 3 {
		t.Fatalf("steps = %d, want 3", steps)
	}
}

func TestPOIGoalSemantics(t *testing.T) {
	g := diamondGraph()
	p := MustNew(KindPOI)
	if !p.Goal(g, Spec{}, 2, 0) || p.Goal(g, Spec{}, 0, 0) {
		t.Fatal("POI goal must mirror tags")
	}
}

func TestSSSPGoalOnlyTarget(t *testing.T) {
	g := diamondGraph()
	p := MustNew(KindSSSP)
	spec := Spec{Target: 3}
	if !p.Goal(g, spec, 3, 0) || p.Goal(g, spec, 1, 0) {
		t.Fatal("SSSP goal must be exactly the target")
	}
	flood := Spec{Target: graph.NilVertex}
	if p.Goal(g, flood, 3, 0) {
		t.Fatal("flood SSSP has no goal")
	}
}

// TestPageRankMassConservation: total injected mass = retained mass +
// damped leakage; scores are positive and the source dominates.
func TestPageRankMassConservation(t *testing.T) {
	g := diamondGraph()
	spec := Spec{ID: 1, Kind: KindPageRank, Source: 0, MaxIters: 50, Epsilon: 1e-12}
	scores := RefPageRank(g, spec)
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	for v, s := range scores {
		if s <= 0 {
			t.Fatalf("score[%d] = %v", v, s)
		}
		if v != 0 && s >= scores[0] {
			t.Fatalf("source must dominate: score[%d]=%v >= %v", v, s, scores[0])
		}
	}
	// With epsilon ~0 and bounded iterations, total retained mass is less
	// than 1 (dangling vertex 3 leaks) but more than the undamped share.
	total := 0.0
	for _, s := range scores {
		total += s
	}
	if total <= 1-Damping || total > 1 {
		t.Fatalf("mass %v out of range (%v, 1]", total, 1-Damping)
	}
}

// TestPageRankEpsilonLocalizes: larger epsilon touches fewer vertices.
func TestPageRankEpsilonLocalizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	n := 300
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddBiEdge(graph.VertexID(rng.IntN(v)), graph.VertexID(v), 1)
	}
	g := b.MustBuild()
	coarse := len(RefPageRank(g, Spec{Kind: KindPageRank, Source: 0, MaxIters: 30, Epsilon: 1e-2}))
	fine := len(RefPageRank(g, Spec{Kind: KindPageRank, Source: 0, MaxIters: 30, Epsilon: 1e-6}))
	if coarse > fine {
		t.Fatalf("coarse epsilon touched %d > fine %d", coarse, fine)
	}
	if fine <= 1 {
		t.Fatal("fine epsilon did not spread")
	}
}

func TestSpecValidate(t *testing.T) {
	g := diamondGraph()
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{ID: 1, Kind: KindSSSP, Source: 0, Target: 3}, true},
		{Spec{ID: 2, Kind: KindSSSP, Source: -1, Target: 3}, false},
		{Spec{ID: 3, Kind: KindSSSP, Source: 0, Target: 9}, false},
		{Spec{ID: 4, Kind: KindPOI, Source: 0, Target: graph.NilVertex}, true},
		{Spec{ID: 5, Kind: KindPageRank, Source: 0, Target: graph.NilVertex}, false}, // needs bounds
		{Spec{ID: 6, Kind: KindPageRank, Source: 0, Target: graph.NilVertex, MaxIters: 5}, true},
		{Spec{ID: 7, Kind: Kind(99), Source: 0, Target: graph.NilVertex}, false},
		// MaxIters outside [0, MaxInt32]: a negative cap passed the PageRank
		// bound check with an epsilon, and one past int32 wrapped on the wire.
		{Spec{ID: 8, Kind: KindPageRank, Source: 0, Target: graph.NilVertex, MaxIters: -5, Epsilon: 1e-4}, false},
		{Spec{ID: 9, Kind: KindBFS, Source: 0, Target: graph.NilVertex, MaxIters: 1<<32 + 1}, false},
		{Spec{ID: 10, Kind: KindBFS, Source: 0, Target: graph.NilVertex, MaxIters: math.MaxInt32}, true},
	}
	for i, c := range cases {
		if err := c.spec.Validate(g); (err == nil) != c.ok {
			t.Fatalf("case %d: ok=%v, err=%v", i, c.ok, err)
		}
	}
}

func TestKindStringAndNew(t *testing.T) {
	for _, k := range []Kind{KindSSSP, KindPOI, KindBFS, KindPageRank} {
		if k.String() == "" {
			t.Fatalf("empty name for %d", k)
		}
		p, err := New(k)
		if err != nil || p.Kind() != k {
			t.Fatalf("New(%v) = %v, %v", k, p, err)
		}
	}
	if _, err := New(Kind(42)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
