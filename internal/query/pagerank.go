package query

import "qgraph/internal/graph"

// Damping is the PageRank damping factor.
const Damping = 0.85

// PageRank is localized (personalized) PageRank seeded at a single vertex —
// the paper's future-work item (i). Rank mass is injected at the source and
// diffuses along out-edges with damping; vertices whose rank change falls
// below Spec.Epsilon stop propagating, which keeps the computation local to
// the seed's neighborhood. The query runs until no vertex propagates or
// Spec.MaxIters supersteps have elapsed.
//
// The vertex value approximates the personalized PageRank score of the
// vertex with restart vertex Source.
type PageRank struct{}

// Kind implements Program.
func (PageRank) Kind() Kind { return KindPageRank }

// Combine sums incoming rank mass.
func (PageRank) Combine(a, b float64) float64 { return a + b }

// Init injects one unit of rank mass at the seed.
func (PageRank) Init(_ graph.View, spec Spec) []Activation {
	return []Activation{{V: spec.Source, Msg: 1}}
}

// Compute accumulates (1-d) of the incoming mass into the vertex score and
// pushes d of it onward, split across out-edges — the push formulation of
// personalized PageRank. Pushes below Epsilon are dropped, localizing the
// query.
func (PageRank) Compute(g graph.View, spec Spec, v graph.VertexID, old float64, hasOld bool, msg float64, emit Emit) (float64, bool) {
	if msg <= 0 {
		return old, false
	}
	val := msg * (1 - Damping)
	if hasOld {
		val += old
	}
	deg := g.OutDegree(v)
	if deg > 0 {
		share := msg * Damping / float64(deg)
		if share >= spec.Epsilon {
			for _, e := range g.Out(v) {
				emit(e.To, share)
			}
		}
	}
	return val, true
}

// Goal is never true: PageRank has no result vertex; the per-vertex scores
// are the result.
func (PageRank) Goal(_ graph.View, _ Spec, _ graph.VertexID, _ float64) bool {
	return false
}

// Monotone is false: rank mass sums, it does not grow along paths.
func (PageRank) Monotone() bool { return false }

// RefPageRank is a sequential reference of the same push process, used by
// tests to validate the distributed execution. It returns the score map of
// every touched vertex.
func RefPageRank(g graph.View, spec Spec) map[graph.VertexID]float64 {
	scores := make(map[graph.VertexID]float64)
	inbox := map[graph.VertexID]float64{spec.Source: 1}
	for iter := 0; len(inbox) > 0 && (spec.MaxIters == 0 || iter < spec.MaxIters); iter++ {
		next := make(map[graph.VertexID]float64)
		for v, mass := range inbox {
			scores[v] += mass * (1 - Damping)
			deg := g.OutDegree(v)
			if deg == 0 {
				continue
			}
			share := mass * Damping / float64(deg)
			if share < spec.Epsilon {
				continue
			}
			for _, e := range g.Out(v) {
				next[e.To] += share
			}
		}
		inbox = next
	}
	return scores
}
