package delta

import (
	"fmt"

	"qgraph/internal/graph"
)

// Compaction policy: fold the overlay back into a fresh CSR base once the
// patched set is both large in absolute terms and a sizable fraction of
// the base. Small overlays stay overlays — a rebuild is O(V+E) and runs
// inside the commit's apply on every node's event loop, so it must be rare.
const (
	compactMinPatched = 1024
	compactFactor     = 4 // compact when patched*factor >= base vertices
)

// View is a consistent, versioned read-through graph: an immutable CSR
// base plus the accumulated overlay of committed mutation batches. It
// implements graph.View.
//
// A View is immutable: Apply returns a new View and leaves the receiver
// valid, so concurrent readers can keep using a snapshot while the next
// batch commits. All nodes applying the same batch sequence to the same
// base converge on the same logical graph (and compact at the same
// batches), keeping replicas consistent without shipping graph data.
type View struct {
	base *graph.Graph
	// patched maps a vertex to its full replacement adjacency. Vertices
	// added after the base was built (id >= base.NumVertices()) also live
	// here once they have out-edges.
	patched map[graph.VertexID][]graph.Edge
	// extraN counts vertices added beyond the base.
	extraN int
	// edgeDelta is the signed edge-count difference vs the base.
	edgeDelta int
	// version counts committed batches since the original base (graph
	// version 0). Compaction does not change the version.
	version uint64
	// compactions counts folds into a fresh base, for introspection.
	compactions uint64
}

// NewView wraps a base graph as version 0.
func NewView(base *graph.Graph) *View {
	return &View{base: base, patched: map[graph.VertexID][]graph.Edge{}}
}

// NewViewAt wraps a base graph as committed version v: the replay base for
// a checkpointed deployment, where the graph on disk already contains the
// first v batches folded in (internal/snapshot).
func NewViewAt(base *graph.Graph, v uint64) *View {
	return &View{base: base, patched: map[graph.VertexID][]graph.Edge{}, version: v}
}

// Version returns the number of committed batches.
func (v *View) Version() uint64 { return v.version }

// Compactions returns how many times the overlay was folded into a fresh
// base.
func (v *View) Compactions() uint64 { return v.compactions }

// OverlaySize returns the number of patched adjacencies (0 right after a
// compaction).
func (v *View) OverlaySize() int { return len(v.patched) }

// NumVertices implements graph.View.
func (v *View) NumVertices() int { return v.base.NumVertices() + v.extraN }

// NumEdges implements graph.View.
func (v *View) NumEdges() int { return v.base.NumEdges() + v.edgeDelta }

// Out implements graph.View. The returned slice must not be modified.
func (v *View) Out(u graph.VertexID) []graph.Edge {
	if len(v.patched) != 0 {
		if adj, ok := v.patched[u]; ok {
			return adj
		}
	}
	if int(u) >= v.base.NumVertices() {
		return nil // added vertex without out-edges
	}
	return v.base.Out(u)
}

// OutDegree implements graph.View.
func (v *View) OutDegree(u graph.VertexID) int { return len(v.Out(u)) }

// HasCoords implements graph.View.
func (v *View) HasCoords() bool { return v.base.HasCoords() }

// Coord implements graph.View. Vertices added after the base was built
// carry the zero coordinate.
func (v *View) Coord(u graph.VertexID) graph.Coord {
	if int(u) >= v.base.NumVertices() {
		return graph.Coord{}
	}
	return v.base.Coord(u)
}

// HasTags implements graph.View.
func (v *View) HasTags() bool { return v.base.HasTags() }

// Tagged implements graph.View. Added vertices are never tagged.
func (v *View) Tagged(u graph.VertexID) bool {
	if int(u) >= v.base.NumVertices() {
		return false
	}
	return v.base.Tagged(u)
}

var _ graph.View = (*View)(nil)

// Apply commits one batch of operations as the next version and returns
// the resulting View, leaving the receiver untouched. The returned
// statuses are parallel to ops (OpApplied or OpNoOp). Out-of-range ops
// return an error and no new view — callers are expected to have
// validated the batch (ValidateOps), so an error here means replicas
// would diverge and must be treated as fatal.
func (v *View) Apply(ops []Op) (*View, []OpStatus, error) {
	if err := ValidateOps(ops, v.NumVertices()); err != nil {
		return nil, nil, err
	}
	nv := &View{
		base:        v.base,
		patched:     make(map[graph.VertexID][]graph.Edge, len(v.patched)+8),
		extraN:      v.extraN,
		edgeDelta:   v.edgeDelta,
		version:     v.version + 1,
		compactions: v.compactions,
	}
	for u, adj := range v.patched {
		nv.patched[u] = adj
	}
	// Adjacencies cloned during THIS apply may be mutated in place; ones
	// inherited from v must be copied first (the old view stays live).
	cloned := make(map[graph.VertexID]bool, len(ops))
	adjOf := func(u graph.VertexID) []graph.Edge {
		if adj, ok := nv.patched[u]; ok {
			if !cloned[u] {
				adj = append([]graph.Edge(nil), adj...)
				nv.patched[u] = adj
				cloned[u] = true
			}
			return adj
		}
		var adj []graph.Edge
		if int(u) < nv.base.NumVertices() {
			adj = append([]graph.Edge(nil), nv.base.Out(u)...)
		}
		nv.patched[u] = adj
		cloned[u] = true
		return adj
	}

	statuses := make([]OpStatus, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpAddEdge:
			nv.patched[op.From] = append(adjOf(op.From), graph.Edge{To: op.To, Weight: op.Weight})
			nv.edgeDelta++
		case OpRemoveEdge:
			adj := adjOf(op.From)
			idx := -1
			for j, e := range adj {
				if e.To == op.To {
					idx = j
					break
				}
			}
			if idx < 0 {
				statuses[i] = OpNoOp
				continue
			}
			nv.patched[op.From] = append(adj[:idx:idx], adj[idx+1:]...)
			nv.edgeDelta--
		case OpSetWeight:
			adj := adjOf(op.From)
			idx := -1
			for j, e := range adj {
				if e.To == op.To {
					idx = j
					break
				}
			}
			if idx < 0 {
				statuses[i] = OpNoOp
				continue
			}
			adj[idx].Weight = op.Weight
		case OpAddVertex:
			nv.extraN++
		}
	}
	if len(nv.patched) >= compactMinPatched && len(nv.patched)*compactFactor >= nv.base.NumVertices() {
		return nv.Compact(), statuses, nil
	}
	return nv, statuses, nil
}

// Compact folds the overlay into a fresh CSR base, preserving the logical
// graph and version. Added vertices get zero coordinates and no tag.
func (v *View) Compact() *View {
	n := v.NumVertices()
	offsets := make([]int32, n+1)
	total := 0
	for u := 0; u < n; u++ {
		total += len(v.Out(graph.VertexID(u)))
		offsets[u+1] = int32(total)
	}
	edges := make([]graph.Edge, 0, total)
	for u := 0; u < n; u++ {
		edges = append(edges, v.Out(graph.VertexID(u))...)
	}
	var coords []graph.Coord
	if v.base.HasCoords() {
		coords = make([]graph.Coord, n)
		copy(coords, v.base.Coords())
	}
	var tags []bool
	if v.base.HasTags() {
		tags = make([]bool, n)
		for u := 0; u < v.base.NumVertices(); u++ {
			tags[u] = v.base.Tagged(graph.VertexID(u))
		}
	}
	base, err := graph.FromCSR(offsets, edges, coords, tags)
	if err != nil {
		// Impossible: every op was validated before it entered the overlay.
		panic(fmt.Sprintf("delta: compaction produced invalid graph: %v", err))
	}
	return &View{
		base:        base,
		patched:     map[graph.VertexID][]graph.Edge{},
		version:     v.version,
		compactions: v.compactions + 1,
	}
}

// Materialize returns the logical graph as a standalone immutable CSR
// graph (tests use it to run reference algorithms post-mutation).
func (v *View) Materialize() *graph.Graph {
	return v.Compact().base
}
