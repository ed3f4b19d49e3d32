package partition

import "qgraph/internal/graph"

// Hash assigns vertices to workers by a multiplicative hash of the vertex
// id. It is the paper's workload-balancing baseline: near-perfect balance,
// poor locality (~38% local query executions in Fig. 6f), because adjacent
// junctions land on different workers.
type Hash struct{}

// Name implements Partitioner.
func (Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (Hash) Partition(g *graph.Graph, k int) (Assignment, error) {
	if err := checkWorkers(k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	a := make(Assignment, n)
	for v := 0; v < n; v++ {
		a[v] = WorkerID(hash32(uint32(v)) % uint32(k))
	}
	return a, nil
}

// hash32 is a Fibonacci/avalanche mix so that consecutive vertex ids spread
// uniformly (plain v%k would stripe a grid graph and accidentally carry
// spatial structure).
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

var _ Partitioner = Hash{}
