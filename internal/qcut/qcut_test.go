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

// TestRunAgainstOptimum checks Q-cut against an exact oracle on inputs small
// enough to enumerate: k = 2 and at most 10 scope rows. The oracle places
// every local scope LS(q, w₀) on each worker in turn and keeps the least
// query-cut cost c(s) (Appendix A) among the placements whose load spread
// Imbalance puts within Delta; it reads nothing of Q-cut's own state. On
// every input, FinalCost is c(s) of the input after Moves; where the
// optimum is above 0, FinalCost is at most optimumFactor times it; and
// where it is 0, Q-cut misses it on at most missedZero inputs. Both bounds
// are what Q-cut met when the test was written, over these 3 000 inputs:
// 1.167 × the optimum at worst, and 3 zeros missed, each on 9 or 10 rows,
// more than the clustering's 4k = 8 units, so some queries move together. Started outside the balance bound, Q-cut
// may stay outside it, at a cost below the balanced optimum (81 inputs).
func TestRunAgainstOptimum(t *testing.T) {
	const (
		optimumFactor = 1.2
		missedZero    = 3
	)
	rng := rand.New(rand.NewPCG(31, 4))
	worst, worstTrial, missed, atOpt, below, trials := 1.0, -1, 0, 0, 0, 0
	for trial := range 3000 {
		in := smallInput(rng)
		opt := optimum(in)
		if opt < 0 {
			continue // no placement is balanced
		}
		trials++
		res := Run(in)
		if c := costAfter(in, res.Moves); c != res.FinalCost {
			t.Fatalf("trial %d: FinalCost %d, but the input after its %d moves costs %d", trial, res.FinalCost, len(res.Moves), c)
		}
		switch {
		case res.FinalCost < opt:
			below++ // Q-cut's plan is outside the balance bound
		case res.FinalCost == opt:
			atOpt++
		case opt == 0:
			missed++
			t.Logf("trial %d: FinalCost %d where a balanced placement costs 0 (%d rows)", trial, res.FinalCost, len(in.Scopes))
		case float64(res.FinalCost) > optimumFactor*float64(opt):
			t.Errorf("trial %d: FinalCost %d, over %.1f × the optimum %d", trial, res.FinalCost, optimumFactor, opt)
		}
		if opt > 0 && float64(res.FinalCost)/float64(opt) > worst {
			worst, worstTrial = float64(res.FinalCost)/float64(opt), trial
		}
	}
	if missed > missedZero {
		t.Errorf("Q-cut missed a zero-cost balanced placement on %d inputs, at most %d allowed", missed, missedZero)
	}
	t.Logf("%d inputs with a balanced placement: %d at the optimum, %d below it (outside the balance bound), %d missing a zero optimum; worst FinalCost / optimum above 0: %.3f (trial %d)",
		trials, atOpt, below, missed, worst, worstTrial)
}

// smallInput is a random input at k = 2 with at most 10 scope rows, whose
// scope mass outweighs the vertex counts, so the balance bound binds.
func smallInput(rng *rand.Rand) Input {
	in := Input{K: 2, Delta: 0.25, Seed: rng.Uint64(), VertexCounts: []int64{rng.Int64N(300), rng.Int64N(300)}}
	for q := range 1 + rng.IntN(10) {
		scale := int64(1)
		if rng.IntN(3) == 0 {
			scale = 5 + rng.Int64N(10)
		}
		row := ScopeRow{Q: query.ID(q + 1), Sizes: []int64{scale * rng.Int64N(100), scale * rng.Int64N(100)}}
		if rng.IntN(5) == 0 {
			row.Sizes[rng.IntN(2)] = 0
		}
		in.Scopes = append(in.Scopes, row)
		for p := range q {
			if rng.IntN(3) == 0 {
				in.Intersections = append(in.Intersections, Intersection{Q1: query.ID(p + 1), Q2: row.Q, Shared: 1 + rng.Int64N(50)})
			}
		}
	}
	return in
}

// optimum is the least c(s) over every placement of in's local scopes on
// its two workers whose Imbalance is at most in.Delta, -1 if none is.
func optimum(in Input) int64 {
	if in.K != 2 {
		panic("optimum enumerates k = 2 only")
	}
	// Loads depend on the scope mass per worker alone, so one row carrying
	// it has the placement's Imbalance.
	var mass int64
	for _, row := range in.Scopes {
		mass += row.Sizes[0] + row.Sizes[1]
	}
	ok := map[int64]bool{}
	balanced := func(at0 int64) bool {
		b, seen := ok[at0]
		if !seen {
			b = Imbalance(Input{K: 2, VertexCounts: in.VertexCounts, Scopes: []ScopeRow{{Sizes: []int64{at0, mass - at0}}}}) <= in.Delta
			ok[at0] = b
		}
		return b
	}
	best := int64(-1)
	var place func(q int, at0, cost int64)
	place = func(q int, at0, cost int64) {
		switch {
		case best >= 0 && cost >= best: // no placement below can cost less
		case q == len(in.Scopes):
			if balanced(at0) {
				best = cost
			}
		default:
			// LS(q, 0) and LS(q, 1) each on worker 0 or 1: q's mass on
			// worker 0, and what is not with its larger part.
			a, b := in.Scopes[q].Sizes[0], in.Scopes[q].Sizes[1]
			for _, m0 := range [4]int64{a + b, a, b, 0} {
				place(q+1, at0+m0, cost+min(m0, a+b-m0))
			}
		}
	}
	place(0, 0, 0)
	return best
}

// costAfter is c(s) of in once moves relocated the local scopes they name.
func costAfter(in Input, moves []Move) int64 {
	at := make(map[query.ID][]int64, len(in.Scopes))
	for _, row := range in.Scopes {
		at[row.Q] = append([]int64(nil), row.Sizes...)
	}
	for _, mv := range moves {
		for _, row := range in.Scopes {
			if row.Q == mv.Q {
				at[mv.Q][mv.From] -= row.Sizes[mv.From]
				at[mv.Q][mv.To] += row.Sizes[mv.From]
			}
		}
	}
	var c int64
	for _, m := range at {
		var total, largest int64
		for _, x := range m {
			total, largest = total+x, max(largest, x)
		}
		c += total - largest
	}
	return c
}
