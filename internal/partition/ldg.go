package partition

import "qgraph/internal/graph"

// LDG is linear deterministic greedy streaming partitioning
// (Stanton & Kliot, KDD'12 — reference [36] of the paper): vertices stream
// in id order and each joins the worker holding most of its neighbors,
// discounted by a capacity penalty. The paper tested LDG as the
// state-of-the-art static baseline but excluded it from the plots because
// the skewed query workload made its partitions highly imbalanced in terms
// of *query* load; we implement it so that finding can be reproduced.
type LDG struct {
	// Slack is the allowed overshoot of the capacity n/k (default 0.1).
	Slack float64
}

// Name implements Partitioner.
func (LDG) Name() string { return "ldg" }

// Partition implements Partitioner.
func (l LDG) Partition(g *graph.Graph, k int) (Assignment, error) {
	if err := checkWorkers(k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	slack := l.Slack
	if slack <= 0 {
		slack = 0.1
	}
	capacity := float64(n)/float64(k)*(1+slack) + 1
	a := make(Assignment, n)
	assigned := make([]bool, n)
	sizes := make([]float64, k)
	neigh := make([]int, k)

	for v := 0; v < n; v++ {
		for i := range neigh {
			neigh[i] = 0
		}
		// Count already-placed neighbors per worker (out-edges; the graphs
		// here are symmetric so this sees both directions in aggregate).
		for _, e := range g.Out(graph.VertexID(v)) {
			if assigned[e.To] {
				neigh[a[e.To]]++
			}
		}
		best, bestScore := 0, -1.0
		for w := 0; w < k; w++ {
			penalty := 1 - sizes[w]/capacity
			if penalty < 0 {
				penalty = 0
			}
			score := float64(neigh[w]) * penalty
			// Tie-break toward the emptiest worker so the stream start
			// (no placed neighbors anywhere) spreads out.
			if score > bestScore || (score == bestScore && sizes[w] < sizes[best]) {
				best, bestScore = w, score
			}
		}
		a[v] = WorkerID(best)
		assigned[v] = true
		sizes[best]++
	}
	return a, nil
}

var _ Partitioner = LDG{}
