package qcut

import (
	"math/rand/v2"

	"qgraph/internal/partition"
	"qgraph/internal/query"
)

// state is one point in the Q-cut solution space: an assignment of every
// original local query scope LS(q, w₀) to a current worker.
//
// Scope masses are tracked at cell granularity — (query, origin worker) —
// so the final state translates directly into executable move directives:
// cell (q, w₀) living at worker w ≠ w₀ becomes move(LS(q,w₀), w₀, w).
type state struct {
	k     int
	delta float64
	// alive[w] marks workers that may hold or receive scopes; dead workers
	// are invisible to the balance constraint and never a move target.
	alive []bool

	ids   []query.ID
	size  [][]int64 // size[q][w0]: immutable original scope sizes
	total []int64   // Σ_w0 size[q][w0]
	loc   [][]uint8 // loc[q][w0]: current worker of the cell

	cur      [][]int64 // cur[q][w]: current mass of q at worker w
	scopeSum []int64   // Σ_q cur[q][w]
	vert     []int64   // |V(w)| (static during one run; refreshed per snapshot)
	// scopeScale normalizes the scope term of the load so that scope mass
	// never outweighs the vertex term: the paper's Lw lives in a regime
	// where |V| dominates (millions of vertices vs. thousands of scope
	// entries); scaled-down graphs invert that ratio, and without
	// normalization any consolidation would look like an imbalance.
	scopeScale float64

	// clusters group queries that overlap; local search moves a cluster's
	// co-located mass as one unit (Appendix A.1's Karger preprocessing).
	clusterOf []int
	clusters  [][]int // member query indices
}

// newState builds the initial state from a controller snapshot.
func newState(in Input) *state {
	nq := len(in.Scopes)
	s := &state{
		k:        in.K,
		delta:    in.Delta,
		ids:      make([]query.ID, nq),
		size:     make([][]int64, nq),
		total:    make([]int64, nq),
		loc:      make([][]uint8, nq),
		cur:      make([][]int64, nq),
		scopeSum: make([]int64, in.K),
		vert:     make([]int64, in.K),
	}
	if s.delta <= 0 {
		s.delta = 0.25
	}
	s.alive = make([]bool, in.K)
	for w := range s.alive {
		s.alive[w] = in.Alive == nil || in.Alive[w]
	}
	copy(s.vert, in.VertexCounts)
	for q, row := range in.Scopes {
		s.ids[q] = row.Q
		s.size[q] = make([]int64, in.K)
		copy(s.size[q], row.Sizes)
		s.loc[q] = make([]uint8, in.K)
		s.cur[q] = make([]int64, in.K)
		for w := 0; w < in.K; w++ {
			if !s.alive[w] {
				// Scope mass attributed to a dead worker describes state the
				// failure destroyed; keeping it would emit move directives a
				// fenced worker can never acknowledge.
				s.size[q][w] = 0
			}
			s.loc[q][w] = uint8(w)
			s.cur[q][w] = s.size[q][w]
			s.total[q] += s.size[q][w]
			s.scopeSum[w] += s.size[q][w]
		}
	}
	var totalV, totalScope int64
	for w := 0; w < in.K; w++ {
		if !s.alive[w] {
			s.vert[w] = 0 // handed off (or about to be); carries no load
		}
		totalV += s.vert[w]
		totalScope += s.scopeSum[w]
	}
	s.scopeScale = 1
	if totalScope > totalV && totalScope > 0 {
		s.scopeScale = float64(totalV) / float64(totalScope)
	}
	s.clusterOf, s.clusters = clusterQueries(in)
	return s
}

func (s *state) clone() *state {
	c := &state{
		k: s.k, delta: s.delta, scopeScale: s.scopeScale, alive: s.alive,
		ids: s.ids, size: s.size, total: s.total, // immutable, shared
		clusterOf: s.clusterOf, clusters: s.clusters, // immutable, shared
		loc:      make([][]uint8, len(s.loc)),
		cur:      make([][]int64, len(s.cur)),
		scopeSum: append([]int64(nil), s.scopeSum...),
		vert:     append([]int64(nil), s.vert...),
	}
	for q := range s.loc {
		c.loc[q] = append([]uint8(nil), s.loc[q]...)
		c.cur[q] = append([]int64(nil), s.cur[q]...)
	}
	return c
}

// cost is the query-cut metric of Sec. 3.2.2: scope mass not co-located
// with the query's largest scope.
func (s *state) cost() int64 {
	var c int64
	for q := range s.cur {
		c += s.queryCost(q)
	}
	return c
}

func (s *state) queryCost(q int) int64 {
	var maxM int64
	for _, m := range s.cur[q] {
		if m > maxM {
			maxM = m
		}
	}
	return s.total[q] - maxM
}

// load is the paper's combined workload metric
// Lw = (|V(w)| + Σ_q |LS(q,w)|) / 2 (Appendix A.1), with the scope term
// normalized (see scopeScale).
func (s *state) load(w int) float64 {
	return (float64(s.vert[w]) + s.scopeScale*float64(s.scopeSum[w])) / 2
}

// loadShift is the load change caused by moving scope mass x between
// workers: the scope term is scaled and halved in load, so the shift is
// not the raw mass. Balance decisions must compare like with like.
func (s *state) loadShift(x int64) float64 {
	return s.scopeScale * float64(x) / 2
}

// clusterMass returns the total mass of cluster c currently at worker w.
func (s *state) clusterMass(c, w int) int64 {
	var m int64
	for _, q := range s.clusters[c] {
		m += s.cur[q][w]
	}
	return m
}

// moveOK is the balance guard of Algorithm 2 line 15, strengthened to the
// all-pairs invariant of Appendix A.1: moving mass x from a to b is
// admissible if the resulting state satisfies the δ constraint between
// every worker pair — or at least strictly reduces the load spread, so the
// search can recover from an unbalanced initial assignment.
func (s *state) moveOK(a, b int, x int64) bool {
	la := s.load(a) - s.loadShift(x)
	lb := s.load(b) + s.loadShift(x)
	var newMin, newMax float64
	first := true
	for w := 0; w < s.k; w++ {
		if !s.alive[w] {
			continue
		}
		l := s.load(w)
		switch w {
		case a:
			l = la
		case b:
			l = lb
		}
		if first || l < newMin {
			newMin = l
		}
		if first || l > newMax {
			newMax = l
		}
		first = false
	}
	if newMax <= 0 {
		return true
	}
	spread := (newMax - newMin) / newMax
	return spread < s.delta || spread < s.imbalance()
}

// Imbalance is the spread of the live workers' loads Lw over in,
// (max − min) / max: the measure the balance constraint keeps below
// Delta. It is 0 when no live worker carries load.
func Imbalance(in Input) float64 { return newState(in).imbalance() }

// imbalance is Imbalance of the current state.
func (s *state) imbalance() float64 {
	var minL, maxL float64
	first := true
	for w := 0; w < s.k; w++ {
		if !s.alive[w] {
			continue
		}
		l := s.load(w)
		if first || l < minL {
			minL = l
		}
		if first || l > maxL {
			maxL = l
		}
		first = false
	}
	if maxL <= 0 {
		return 0
	}
	return (maxL - minL) / maxL
}

// applyMove relocates cluster c's mass from worker a to worker b and
// returns the moved mass. The vertex counts stay fixed within one run
// (scope overlaps make the exact vertex movement unknowable at this level
// of abstraction, Sec. 3.2); the controller refreshes them from move
// acknowledgements before the next snapshot.
func (s *state) applyMove(c, a, b int) int64 {
	var moved int64
	for _, q := range s.clusters[c] {
		m := s.cur[q][a]
		if m == 0 {
			continue
		}
		moved += m
		s.cur[q][a] = 0
		s.cur[q][b] += m
		for w0 := 0; w0 < s.k; w0++ {
			if s.loc[q][w0] == uint8(a) {
				s.loc[q][w0] = uint8(b)
			}
		}
	}
	s.scopeSum[a] -= moved
	s.scopeSum[b] += moved
	return moved
}

// balanced reports whether every worker pair satisfies the δ constraint
// |Lw − Lw'| / max(Lw, Lw') < δ of Appendix A.1.
func (s *state) balanced() bool { return s.imbalance() < s.delta }

// moves extracts the executable move directives: every original cell now
// living somewhere else.
func (s *state) moves() []Move {
	var out []Move
	for q := range s.loc {
		for w0 := 0; w0 < s.k; w0++ {
			if s.size[q][w0] > 0 && int(s.loc[q][w0]) != w0 {
				out = append(out, Move{
					Q:    s.ids[q],
					From: partition.WorkerID(w0),
					To:   partition.WorkerID(s.loc[q][w0]),
				})
			}
		}
	}
	return out
}

// rebalance restores the δ constraint by moving random cluster scopes from
// the most- to the least-loaded worker (perturbation step III, also used
// to repair an unbalanced initial assignment). Best effort: gives up after
// a bounded number of attempts.
func (s *state) rebalance(rng *rand.Rand) {
	for attempt := 0; attempt < 8*len(s.clusters)+32 && !s.balanced(); attempt++ {
		maxW, minW := -1, -1
		for w := 0; w < s.k; w++ {
			if !s.alive[w] {
				continue
			}
			if maxW < 0 || s.load(w) > s.load(maxW) {
				maxW = w
			}
			if minW < 0 || s.load(w) < s.load(minW) {
				minW = w
			}
		}
		if maxW < 0 || maxW == minW {
			return
		}
		// Candidate clusters with mass on the overloaded worker.
		var cands []int
		for c := range s.clusters {
			if s.clusterMass(c, maxW) > 0 {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			return
		}
		c := cands[rng.IntN(len(cands))]
		// Skip pathological moves that would overshoot far past balance —
		// comparing the move's actual load shift, not its raw scope mass,
		// against the spread (the scope term is scaled in load).
		if x := s.clusterMass(c, maxW); s.loadShift(x) > 2*(s.load(maxW)-s.load(minW)) && len(cands) > 1 {
			continue
		}
		s.applyMove(c, maxW, minW)
	}
}
