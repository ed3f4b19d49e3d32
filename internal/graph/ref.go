package graph

import "math"

// This file holds sequential reference algorithms. They are the ground
// truth the distributed engine is validated against in tests: whatever the
// partitioning, synchronization mode, or adaptivity decisions, query
// results must match these.

// Inf is the distance assigned to unreachable vertices.
const Inf = math.MaxFloat64

// Dijkstra computes shortest-path distances from source to every vertex.
// Unreachable vertices get Inf.
func Dijkstra(g *Graph, source VertexID) []float64 {
	dist, _, _ := search(g, source, func(VertexID) bool { return false })
	return dist
}

// DijkstraTo computes the shortest-path distance from source to target,
// stopping as soon as the target is settled. Returns Inf if unreachable.
func DijkstraTo(g *Graph, source, target VertexID) float64 {
	_, _, d := search(g, source, func(v VertexID) bool { return v == target })
	return d
}

// NearestTagged finds the tagged vertex with the smallest travel time from
// source (the POI reference). It returns NilVertex and Inf when no tagged
// vertex is reachable.
func NearestTagged(g *Graph, source VertexID) (VertexID, float64) {
	if !g.HasTags() {
		return NilVertex, Inf
	}
	_, v, d := search(g, source, g.Tagged)
	return v, d
}

// search settles vertices in order of distance from source, stopping at the
// first one done accepts: it returns that vertex and its distance (NilVertex
// and Inf if none), and the tentative distance of every vertex so far.
func search(g *Graph, source VertexID, done func(VertexID) bool) ([]float64, VertexID, float64) {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	dist[source] = 0
	pq := distHeap{{source, 0}}
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > dist[it.v] {
			continue
		}
		if done(it.v) {
			return dist, it.v, it.dist
		}
		for _, e := range g.Out(it.v) {
			nd := it.dist + float64(e.Weight)
			if nd < dist[e.To] {
				dist[e.To] = nd
				pq.push(pqItem{e.To, nd})
			}
		}
	}
	return dist, NilVertex, Inf
}

type pqItem struct {
	v    VertexID
	dist float64
}

// distHeap is a binary min-heap by dist. It sifts exactly as container/heap
// does, so equal distances settle in the same order, but holds its items
// unboxed: a push allocates nothing beyond the slice's growth.
type distHeap []pqItem

func (h *distHeap) push(it pqItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *distHeap) pop() pqItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// BFSHops computes hop counts from source (edge weights ignored);
// unreachable vertices get -1.
func BFSHops(g *Graph, source VertexID) []int {
	hops := make([]int, g.NumVertices())
	for i := range hops {
		hops[i] = -1
	}
	hops[source] = 0
	frontier := []VertexID{source}
	for len(frontier) > 0 {
		var next []VertexID
		for _, v := range frontier {
			for _, e := range g.Out(v) {
				if hops[e.To] == -1 {
					hops[e.To] = hops[v] + 1
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return hops
}

// ConnectedFrom returns the number of vertices reachable from source.
func ConnectedFrom(g *Graph, source VertexID) int {
	hops := BFSHops(g, source)
	n := 0
	for _, h := range hops {
		if h >= 0 {
			n++
		}
	}
	return n
}
