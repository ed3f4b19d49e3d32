// Package partition provides the initial (static) graph partitioning
// algorithms of the paper's evaluation — Hash, Domain, and LDG [36] — plus
// the quality metrics used to compare them. The query-aware Q-cut algorithm
// that refines these at runtime lives in internal/qcut.
package partition

import (
	"fmt"

	"qgraph/internal/graph"
)

// WorkerID indexes a worker (partition). The engine supports up to 255
// workers; the paper evaluates 2–16.
type WorkerID uint8

// MaxWorkers is the largest supported worker count.
const MaxWorkers = 255

// Assignment maps every vertex to its owning worker. It is the low-level
// representation the controller's high-level query-cut is translated into.
type Assignment []WorkerID

// Validate reports an error unless k is a valid worker count and every
// vertex is assigned to a worker below k. An assignment does not record k
// (max owner + 1 would be wrong for empty partitions), so callers carry it.
func (a Assignment) Validate(k int) error {
	if err := checkWorkers(k); err != nil {
		return err
	}
	for v, w := range a {
		if int(w) >= k {
			return fmt.Errorf("partition: vertex %d assigned to worker %d >= k=%d", v, w, k)
		}
	}
	return nil
}

// checkWorkers rejects a worker count outside [1, MaxWorkers]. Every
// Partitioner calls it before any work.
func checkWorkers(k int) error {
	if k < 1 || k > MaxWorkers {
		return fmt.Errorf("partition: worker count %d out of range", k)
	}
	return nil
}

// Counts returns the number of vertices per worker.
func (a Assignment) Counts(k int) []int {
	counts := make([]int, k)
	for _, w := range a {
		counts[w]++
	}
	return counts
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Partitioner computes an initial assignment of graph vertices to k
// workers.
type Partitioner interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Partition assigns every vertex of g to one of k workers.
	Partition(g *graph.Graph, k int) (Assignment, error)
}

// EdgeCut counts directed edges whose endpoints live on different workers —
// the classic query-agnostic quality metric the paper argues is the wrong
// objective for CGA applications (Fig. 1).
func EdgeCut(g *graph.Graph, a Assignment) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		wv := a[v]
		for _, e := range g.Out(graph.VertexID(v)) {
			if a[e.To] != wv {
				cut++
			}
		}
	}
	return cut
}

// Imbalance returns max_w |V(w)| / (n/k) − 1: zero for perfectly balanced
// partitions.
func Imbalance(a Assignment, k int) float64 {
	counts := a.Counts(k)
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	avg := float64(len(a)) / float64(k)
	if avg == 0 {
		return 0
	}
	return float64(maxC)/avg - 1
}
