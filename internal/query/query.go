// Package query defines the vertex-centric programming model of Q-Graph
// (Sec. 2 of the paper) and the concrete graph queries the evaluation uses.
//
// A query q = (f, Vsub) is a vertex function plus an initial set of active
// vertices. Each superstep, every active vertex receives its combined
// incoming message, recomputes its query-private value, and may send
// messages along out-edges. Vertices activated by a message in superstep i
// run in superstep i+1. Queries read the shared graph structure but write
// only query-private data, so any number of queries run in parallel without
// write conflicts.
package query

import (
	"fmt"
	"math"

	"qgraph/internal/graph"
)

// ID identifies a scheduled query instance.
type ID int64

// Kind selects the vertex program for a query.
type Kind uint8

// The query kinds implemented by the engine. SSSP and POI are the two
// evaluation queries of the paper (Sec. 4.1); BFS is a simpler variant used
// heavily in tests; PageRank implements the paper's future-work item (i),
// localized personalized PageRank.
const (
	KindSSSP Kind = iota + 1
	KindPOI
	KindBFS
	KindPageRank
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindSSSP:
		return "sssp"
	case KindPOI:
		return "poi"
	case KindBFS:
		return "bfs"
	case KindPageRank:
		return "pagerank"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Spec describes one query instance: which program to run and its
// parameters. It is the wire-level description the controller forwards to
// workers with executeQuery (Table 2 of the paper).
type Spec struct {
	ID     ID
	Kind   Kind
	Source graph.VertexID
	// Target is the end vertex for SSSP/BFS point-to-point queries;
	// NilVertex floods from the source instead.
	Target graph.VertexID
	// MaxIters caps the number of supersteps (0 = no cap). PageRank
	// requires a cap or epsilon.
	MaxIters int
	// Epsilon is the PageRank activation threshold: vertices whose rank
	// changed by less than Epsilon do not propagate.
	Epsilon float64
	// TraceID carries the observability trace this query belongs to (0 =
	// untraced). It rides executeQuery to every worker so worker-side
	// structured logs correlate with the span tree the serving layer
	// assembles (internal/obs).
	TraceID uint64
	// PinVersion is the committed graph version this query executes
	// against: assigned by the controller at admission, and the version
	// every worker must be at when the query reaches it, so all of them
	// hold the same immutable delta.View snapshot. Batches committing at
	// later versions while the query runs are invisible to it (MVCC
	// snapshot isolation).
	PinVersion uint64
}

// Validate checks the spec against a graph.
func (s Spec) Validate(g graph.View) error {
	n := graph.VertexID(g.NumVertices())
	if s.Source < 0 || s.Source >= n {
		return fmt.Errorf("query %d: source %d out of range [0,%d)", s.ID, s.Source, n)
	}
	if s.Target != graph.NilVertex && (s.Target < 0 || s.Target >= n) {
		return fmt.Errorf("query %d: target %d out of range", s.ID, s.Target)
	}
	// The wire carries MaxIters as an i32, and the controller and the
	// workers would read a negative cap differently (no cap / stop now).
	if s.MaxIters < 0 || s.MaxIters > math.MaxInt32 {
		return fmt.Errorf("query %d: max iters %d out of range [0,%d]", s.ID, s.MaxIters, math.MaxInt32)
	}
	switch s.Kind {
	case KindSSSP, KindBFS:
	case KindPOI:
		if !g.HasTags() {
			return fmt.Errorf("query %d: POI requires a tagged graph", s.ID)
		}
	case KindPageRank:
		if s.MaxIters <= 0 && s.Epsilon <= 0 {
			return fmt.Errorf("query %d: pagerank needs MaxIters or Epsilon", s.ID)
		}
	default:
		return fmt.Errorf("query %d: unknown kind %d", s.ID, uint8(s.Kind))
	}
	return nil
}

// Activation is an initial (vertex, message) pair seeding a query.
type Activation struct {
	V   graph.VertexID
	Msg float64
}

// Emit is the callback a vertex function uses to send a message to a
// neighboring vertex in the next superstep.
type Emit func(to graph.VertexID, msg float64)

// Program is a vertex-centric program: the application logic of a query
// kind. Implementations must be stateless; all per-query state lives in the
// worker's query-private vertex data.
type Program interface {
	// Kind returns the kind this program implements.
	Kind() Kind
	// Combine merges two messages addressed to the same vertex in the same
	// superstep (min for distance-style programs, sum for PageRank).
	Combine(a, b float64) float64
	// Init returns the initial activations (the paper's Vsub).
	Init(g graph.View, spec Spec) []Activation
	// Compute runs the vertex function f(Dv, m*→v): old is the current
	// query-private value of v (hasOld=false on first touch), msg the
	// combined incoming message. It returns the new value and whether it
	// changed (only changed values are stored and propagate).
	Compute(g graph.View, spec Spec, v graph.VertexID, old float64, hasOld bool, msg float64, emit Emit) (newVal float64, changed bool)
	// Goal reports whether v holding val is a result candidate (the SSSP
	// target, a tagged POI vertex). The query result is the minimal goal
	// value observed.
	Goal(g graph.View, spec Spec, v graph.VertexID, val float64) bool
	// Monotone reports whether message values never decrease along a path
	// (true for distance-style programs). Monotone queries terminate early
	// once the smallest in-flight frontier value is no better than the best
	// goal value found — this is what keeps queries localized. A monotone
	// program's Combine is min, and its Compute returns (old, false) and
	// emits nothing when hasOld and msg >= old: a message no better than
	// its vertex's value cannot change the vertex, and values only fall.
	Monotone() bool
}

// New returns the program for a kind.
func New(k Kind) (Program, error) {
	switch k {
	case KindSSSP:
		return SSSP{}, nil
	case KindPOI:
		return POI{}, nil
	case KindBFS:
		return BFS{}, nil
	case KindPageRank:
		return PageRank{}, nil
	default:
		return nil, fmt.Errorf("query: unknown kind %d", uint8(k))
	}
}

// MustNew is New that panics on unknown kinds.
func MustNew(k Kind) Program {
	p, err := New(k)
	if err != nil {
		panic(err)
	}
	return p
}

// NoResult is the query result when no goal vertex was reached.
const NoResult = math.MaxFloat64
