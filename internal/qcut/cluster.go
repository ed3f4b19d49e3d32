package qcut

import (
	"math"
	"math/rand/v2"
	"sort"

	"qgraph/internal/query"
)

// clusterQueries groups overlapping queries by randomized contraction on
// the query-intersection graph — the Karger-style linear-time
// preprocessing of Appendix A.1 that caps the number of movable units at
// MaxClusters (paper: 4k), keeping the local-search neighborhood small.
//
// Edges are contracted in weighted-random order (heavier overlaps contract
// first in expectation), exactly the bias of Karger's algorithm: strongly
// overlapping queries end up in one cluster, so the local search moves
// whole hotspots instead of tearing them apart.
func clusterQueries(in Input) (clusterOf []int, clusters [][]int) {
	nq := len(in.Scopes)
	idx := make(map[query.ID]int, nq)
	for i, row := range in.Scopes {
		idx[row.Q] = i
	}
	parent := make([]int, nq)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	target := in.MaxClusters
	if target <= 0 {
		target = 4 * in.K
	}
	count := nq

	if count > target {
		type edge struct {
			a, b int
			key  float64
		}
		rng := rand.New(rand.NewPCG(in.Seed^0xabcd, 0x9e3779b97f4a7c15))
		edges := make([]edge, 0, len(in.Intersections))
		for _, is := range in.Intersections {
			a, okA := idx[is.Q1]
			b, okB := idx[is.Q2]
			if !okA || !okB || is.Shared <= 0 {
				continue
			}
			// Exponential race: sorting by Exp(weight) samples edges in
			// weighted-random order, the standard trick for weighted
			// Karger contraction.
			key := -math.Log(1-rng.Float64()) / float64(is.Shared)
			edges = append(edges, edge{a: a, b: b, key: key})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].key < edges[j].key })
		for _, e := range edges {
			if count <= target {
				break
			}
			ra, rb := find(e.a), find(e.b)
			if ra != rb {
				parent[ra] = rb
				count--
			}
		}
	}

	clusterOf = make([]int, nq)
	byRoot := map[int]int{}
	for qi := 0; qi < nq; qi++ {
		r := find(qi)
		ci, ok := byRoot[r]
		if !ok {
			ci = len(clusters)
			byRoot[r] = ci
			clusters = append(clusters, nil)
		}
		clusterOf[qi] = ci
		clusters[ci] = append(clusters[ci], qi)
	}
	return clusterOf, clusters
}
