// Package qcut implements the paper's core contribution: query-aware
// partitioning by iterated local search over the controller's high-level
// query representation (Sec. 3.2 and Appendix A).
//
// Instead of partitioning millions of vertices, Q-cut moves whole local
// query scopes LS(q,w) — of which there are at most |Q|·k — between
// workers, minimizing the query-cut cost
//
//	c(s) = Σ_q Σ_{w ≠ argmax_w' |LS(q,w')|} |LS(q,w)|
//
// (the number of scope vertices not co-located with their query's largest
// scope) subject to the workload balance constraint of Appendix A.1. The
// result is a set of move(LS(q,w), w, w') directives the controller
// executes under a global barrier.
//
// A run stops at Input.Deadline, which the controller sets Budget after its
// snapshot, or once maxStall perturbation rounds in a row found nothing
// better, whichever comes first.
package qcut

import (
	"math/rand/v2"
	"time"

	"qgraph/internal/partition"
	"qgraph/internal/query"
)

// Budget is the planning time one run gets (Sec. 3.2.2: 2 s).
const Budget = 2 * time.Second

// maxStall stops a run after this many perturbation rounds without
// improvement. This implements the paper's requirement (b): best-found
// solution on interruption, without burning the budget once converged.
const maxStall = 64

// ScopeRow is one query's local scope sizes across all workers, as
// aggregated by the controller's monitoring window.
type ScopeRow struct {
	Q     query.ID
	Sizes []int64 // indexed by worker
}

// Intersection is the aggregated overlap |GS(q1) ∩ GS(q2)| between two
// query scopes (summed over workers); the clustering pre-processing uses
// it as affinity.
type Intersection struct {
	Q1, Q2 query.ID
	Shared int64
}

// Input is a snapshot of the controller's global knowledge for one Q-cut
// run.
type Input struct {
	K             int
	Scopes        []ScopeRow
	Intersections []Intersection
	VertexCounts  []int64 // |V(w)| per worker
	// Alive marks the workers that can receive scopes; nil means all K.
	// Dead workers (fenced by recovery, partitions handed off) carry no
	// load, receive no moves, and are excluded from the balance constraint
	// — a shrunken cluster keeps adapting over its live set, and a
	// rejoined-empty worker is the least-loaded target for re-loading.
	Alive []bool
	// Delta is the maximum allowed relative workload difference δ
	// (paper: 0.25).
	Delta float64
	// MaxClusters caps the Karger clustering (paper: 4k). 0 uses 4·K.
	MaxClusters int
	// Deadline bounds the run (see Budget). Zero means no deadline — the
	// run then stops on convergence alone.
	Deadline time.Time
	Seed     uint64
}

// Move is one move(LS(q,From), From, To) directive.
type Move struct {
	Q        query.ID
	From, To partition.WorkerID
}

// Result is the outcome of one Q-cut run.
type Result struct {
	Moves       []Move
	InitialCost int64
	FinalCost   int64
	Rounds      int
}

// Run executes Q-cut on a snapshot. It always returns the best solution
// found so far, even when the deadline interrupts it mid-search
// (requirement (b) of Sec. 3.2.2).
func Run(in Input) Result {
	rng := rand.New(rand.NewPCG(in.Seed, 0x2545f4914f6cdd1d))
	s := newState(in)
	res := Result{InitialCost: s.cost()}
	deadline := func() bool {
		return !in.Deadline.IsZero() && time.Now().After(in.Deadline)
	}

	// Initial solution: the running system's current assignment,
	// rebalanced if it violates δ (Appendix A.3 — "all solution states
	// have balanced workload").
	s.rebalance(rng)
	s.localSearch(deadline)
	best := s.clone()

	stall := 0
	for round := 1; stall < maxStall && !deadline(); round++ {
		cand := best.clone()
		cand.perturb(rng)
		cand.localSearch(deadline)
		improved := cand.balanced() && cand.cost() < best.cost()
		if improved {
			best = cand
			stall = 0
		} else {
			stall++
		}
		res.Rounds = round
	}

	res.FinalCost = best.cost()
	res.Moves = best.moves()
	return res
}
