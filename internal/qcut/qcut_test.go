package qcut

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"qgraph/internal/query"
)

// randomInput builds a random but well-formed Q-cut snapshot.
func randomInput(rng *rand.Rand, k, nq int) Input {
	in := Input{
		K:            k,
		Delta:        0.25,
		Seed:         rng.Uint64(),
		VertexCounts: make([]int64, k),
	}
	for w := 0; w < k; w++ {
		in.VertexCounts[w] = int64(1000 + rng.IntN(200))
	}
	for q := 0; q < nq; q++ {
		row := ScopeRow{Q: query.ID(q + 1), Sizes: make([]int64, k)}
		// Each query has scope on 1-3 workers.
		spread := 1 + rng.IntN(3)
		for s := 0; s < spread; s++ {
			row.Sizes[rng.IntN(k)] += int64(10 + rng.IntN(90))
		}
		in.Scopes = append(in.Scopes, row)
	}
	// Random intersections between nearby query ids.
	for q := 0; q+1 < nq; q++ {
		if rng.IntN(3) == 0 {
			in.Intersections = append(in.Intersections, Intersection{
				Q1: query.ID(q + 1), Q2: query.ID(q + 2), Shared: int64(1 + rng.IntN(20)),
			})
		}
	}
	return in
}

// TestRunNeverWorsens: the returned solution never costs more than the
// (rebalanced) initial one, and moves are well-formed.
func TestRunNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		in := randomInput(rng, 2+rng.IntN(8), 1+rng.IntN(60))
		res := Run(in)
		if res.FinalCost < 0 {
			t.Fatalf("trial %d: negative final cost %d", trial, res.FinalCost)
		}
		for _, mv := range res.Moves {
			if mv.From == mv.To {
				t.Fatalf("trial %d: degenerate move %+v", trial, mv)
			}
			if int(mv.From) >= in.K || int(mv.To) >= in.K {
				t.Fatalf("trial %d: move out of range %+v", trial, mv)
			}
		}
	}
}

// TestStateInvariants checks mass conservation and cost consistency under
// random move sequences (property-based).
func TestStateInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		in := randomInput(rng, 2+rng.IntN(6), 1+rng.IntN(40))
		s := newState(in)

		wantTotals := make(map[query.ID]int64)
		for _, row := range in.Scopes {
			for _, sz := range row.Sizes {
				wantTotals[row.Q] += sz
			}
		}
		for step := 0; step < 30; step++ {
			c := rng.IntN(len(s.clusters))
			a, b := rng.IntN(s.k), rng.IntN(s.k)
			if a == b {
				continue
			}
			s.applyMove(c, a, b)
			// Mass conservation per query.
			for qi, id := range s.ids {
				var sum int64
				for w := 0; w < s.k; w++ {
					sum += s.cur[qi][w]
				}
				if sum != wantTotals[id] {
					t.Logf("query %d: mass %d, want %d", id, sum, wantTotals[id])
					return false
				}
			}
			// scopeSum consistency.
			for w := 0; w < s.k; w++ {
				var sum int64
				for qi := range s.ids {
					sum += s.cur[qi][w]
				}
				if sum != s.scopeSum[w] {
					t.Logf("worker %d: scopeSum %d, want %d", w, s.scopeSum[w], sum)
					return false
				}
			}
			// loc ↔ cur consistency.
			for qi := range s.ids {
				derived := make([]int64, s.k)
				for w0 := 0; w0 < s.k; w0++ {
					derived[s.loc[qi][w0]] += s.size[qi][w0]
				}
				for w := 0; w < s.k; w++ {
					if derived[w] != s.cur[qi][w] {
						t.Logf("query %d worker %d: loc-derived %d, cur %d", s.ids[qi], w, derived[w], s.cur[qi][w])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLocalSearchMonotone: every local-search step lowers the cost.
func TestLocalSearchMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		in := randomInput(rng, 2+rng.IntN(6), 1+rng.IntN(50))
		s := newState(in)
		before := s.cost()
		s.localSearch(nil)
		after := s.cost()
		if after > before {
			t.Fatalf("trial %d: local search raised cost %d → %d", trial, before, after)
		}
		// A local minimum: no single balanced cluster move improves.
		for c := range s.clusters {
			for a := 0; a < s.k; a++ {
				x := s.clusterMass(c, a)
				if x == 0 {
					continue
				}
				for b := 0; b < s.k; b++ {
					if b == a || !s.moveOK(a, b, x) {
						continue
					}
					if d := s.moveDelta(c, a, b); d < 0 {
						t.Fatalf("trial %d: not a local minimum: cluster %d %d→%d improves by %d", trial, c, a, b, d)
					}
				}
			}
		}
	}
}

// TestPerfectSplit: two disjoint query groups on two workers must reach
// cost zero.
func TestPerfectSplit(t *testing.T) {
	in := Input{
		K: 2, Delta: 0.5, Seed: 42,
		VertexCounts: []int64{100, 100},
		Scopes: []ScopeRow{
			// Query 1 and 2 split across both workers; fusing each on one
			// worker is balanced and has cost 0.
			{Q: 1, Sizes: []int64{30, 30}},
			{Q: 2, Sizes: []int64{30, 30}},
		},
	}
	res := Run(in)
	if res.FinalCost != 0 {
		t.Fatalf("final cost %d, want 0 (moves %v)", res.FinalCost, res.Moves)
	}
	if len(res.Moves) == 0 {
		t.Fatalf("expected moves to fuse the split scopes")
	}
}

// TestBalanceRespected: the returned solution respects δ whenever the
// initial state does.
func TestBalanceRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 40; trial++ {
		in := randomInput(rng, 2+rng.IntN(6), 5+rng.IntN(40))
		s0 := newState(in)
		if !s0.balanced() {
			continue // only meaningful from balanced starts
		}
		res := Run(in)
		// Re-derive the final state: each directive relocates exactly the
		// original cell LS(q, From) — the engine's move execution is
		// order-independent by construction (arrivals within a barrier are
		// excluded from subsequent moves).
		s := newState(in)
		for _, mv := range res.Moves {
			qi := -1
			for i, id := range s.ids {
				if id == mv.Q {
					qi = i
					break
				}
			}
			m := s.size[qi][mv.From]
			s.cur[qi][mv.From] -= m
			s.cur[qi][mv.To] += m
			s.scopeSum[mv.From] -= m
			s.scopeSum[mv.To] += m
		}
		if !s.balanced() {
			t.Fatalf("trial %d: final state violates balance", trial)
		}
	}
}

// TestDeadlineInterrupts: a tiny deadline still yields a valid result
// quickly.
func TestDeadlineInterrupts(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	in := randomInput(rng, 8, 200)
	in.Deadline = time.Now() // already expired
	start := time.Now()
	res := Run(in)
	if time.Since(start) > 2*time.Second {
		t.Fatalf("expired deadline did not interrupt promptly")
	}
	if res.FinalCost > res.InitialCost {
		t.Fatalf("interrupted run worsened cost")
	}
}

// TestClusteringRespectsCap: the Karger contraction reaches the cluster
// cap when enough intersections exist, and never merges non-intersecting
// queries.
func TestClusteringRespectsCap(t *testing.T) {
	in := Input{K: 2, Seed: 11, MaxClusters: 3}
	// Chain of 10 queries all intersecting their neighbor.
	for q := 1; q <= 10; q++ {
		in.Scopes = append(in.Scopes, ScopeRow{Q: query.ID(q), Sizes: []int64{10, 0}})
		if q > 1 {
			in.Intersections = append(in.Intersections, Intersection{
				Q1: query.ID(q - 1), Q2: query.ID(q), Shared: 5,
			})
		}
	}
	_, clusters := clusterQueries(in)
	if len(clusters) > 10 {
		t.Fatalf("more clusters than queries")
	}
	if len(clusters) < 3 {
		t.Fatalf("contracted below the cap: %d clusters", len(clusters))
	}

	// Without intersections nothing contracts.
	in.Intersections = nil
	_, clusters = clusterQueries(in)
	if len(clusters) != 10 {
		t.Fatalf("non-intersecting queries merged: %d clusters", len(clusters))
	}
}

// TestLiveSetAwareness: with a dead worker masked out, Q-cut keeps
// producing plans over the survivors — no move ever originates at or
// targets the dead worker, scope mass attributed to it is written off,
// and a rejoined-empty worker attracts mass (the active re-load path).
func TestLiveSetAwareness(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 40; trial++ {
		k := 3 + rng.IntN(6)
		in := randomInput(rng, k, 1+rng.IntN(60))
		dead := rng.IntN(k)
		in.Alive = make([]bool, k)
		for w := range in.Alive {
			in.Alive[w] = w != dead
		}
		// A handed-off worker carries no vertices; its stale scope rows
		// (the controller zeroes them, but Q-cut must not rely on that)
		// stay as randomInput made them.
		in.VertexCounts[dead] = 0
		res := Run(in)
		for _, mv := range res.Moves {
			if int(mv.From) == dead || int(mv.To) == dead {
				t.Fatalf("trial %d: move %+v references dead worker %d", trial, mv, dead)
			}
		}
	}
}

// TestLiveSetReloadsEmptyWorker: a rejoined worker with zero scope mass is
// the least-loaded live target, so a grossly imbalanced snapshot moves
// scope onto it.
func TestLiveSetReloadsEmptyWorker(t *testing.T) {
	in := Input{
		K:            3,
		Delta:        0.25,
		Seed:         7,
		VertexCounts: []int64{10, 10, 10},
		Alive:        []bool{true, true, true},
	}
	// All scope mass piled on worker 0; worker 2 rejoined empty.
	for q := 0; q < 12; q++ {
		in.Scopes = append(in.Scopes, ScopeRow{
			Q: query.ID(q + 1), Sizes: []int64{40, 0, 0},
		})
	}
	res := Run(in)
	onto2 := 0
	for _, mv := range res.Moves {
		if mv.To == 2 {
			onto2++
		}
	}
	if onto2 == 0 {
		t.Fatalf("no scope moved onto the empty worker: moves %+v", res.Moves)
	}
}

// TestImbalance: the load spread the controller's trigger reads is the one
// the balance constraint keeps below δ, over the live workers only.
func TestImbalance(t *testing.T) {
	rows := func(n int, sizes ...int64) (out []ScopeRow) {
		for q := 1; q <= n; q++ {
			out = append(out, ScopeRow{Q: query.ID(q), Sizes: sizes})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		in   Input
		want float64
	}{
		{"no load", Input{K: 2, VertexCounts: []int64{0, 0}, Scopes: rows(3, 0, 0)}, 0},
		{"vertices alone", Input{K: 2, VertexCounts: []int64{6, 2}}, 2.0 / 3},
		{"scope mass within the vertices counts in full",
			Input{K: 2, VertexCounts: []int64{4, 4}, Scopes: rows(1, 4, 0)}, (4.0 - 2) / 4},
		{"scope mass past the vertices is scaled to them",
			Input{K: 2, VertexCounts: []int64{4, 4}, Scopes: rows(8, 40, 0)}, (6.0 - 2) / 6},
		{"a dead worker is masked",
			Input{K: 3, VertexCounts: []int64{4, 4, 8}, Alive: []bool{true, true, false}, Scopes: rows(2, 4, 4, 100)}, 0},
		{"no live worker carries load",
			Input{K: 2, VertexCounts: []int64{0, 8}, Alive: []bool{true, false}, Scopes: rows(1, 0, 9)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Imbalance(tc.in)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Imbalance = %v, want %v", got, tc.want)
			}
			for _, delta := range []float64{0.25, 0.5, 2.0 / 3, 0.7} {
				tc.in.Delta = delta
				if b := newState(tc.in).balanced(); b != (got < delta) {
					t.Fatalf("balanced at δ %v is %v, with spread %v", delta, b, got)
				}
			}
		})
	}
}
