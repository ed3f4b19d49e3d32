// Package delta implements streaming graph updates over the immutable CSR
// graph: a small mutation algebra (add/remove edge, set weight, add
// vertex), batches of those operations committed as one atomic unit, and
// an epoch-versioned read-through overlay (View) that layers committed
// batches over a base graph without rebuilding it.
//
// The Q-Graph model treats the graph as immutable shared structure; this
// package is the second data plane that relaxes that: the controller
// stages incoming operations into a batch, commits the batch at a global
// barrier while the vertex-message network is provably quiet, and every
// node (controller and workers) applies the same batch to its own View.
// Queries therefore always execute against a consistent graph version —
// a superstep never observes a half-applied batch. Large overlays are
// periodically folded back into a fresh CSR base (compaction).
package delta

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"qgraph/internal/graph"
)

// OpKind discriminates mutation operations. The numeric values are part of
// the wire format (transport codec) and of the replayable stream format.
type OpKind uint8

// The mutation operations.
const (
	// OpAddEdge appends a directed edge From -> To with Weight.
	OpAddEdge OpKind = iota + 1
	// OpRemoveEdge removes the first directed edge From -> To, if any.
	OpRemoveEdge
	// OpSetWeight sets the weight of the first directed edge From -> To,
	// if any.
	OpSetWeight
	// OpAddVertex appends one new vertex (id = current NumVertices). New
	// vertices carry no coordinate and no POI tag.
	OpAddVertex
)

// String returns the stream-format name of the kind.
func (k OpKind) String() string {
	switch k {
	case OpAddEdge:
		return "add_edge"
	case OpRemoveEdge:
		return "remove_edge"
	case OpSetWeight:
		return "set_weight"
	case OpAddVertex:
		return "add_vertex"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// KindFromString parses a stream-format kind name.
func KindFromString(s string) (OpKind, error) {
	switch s {
	case "add_edge":
		return OpAddEdge, nil
	case "remove_edge":
		return OpRemoveEdge, nil
	case "set_weight":
		return OpSetWeight, nil
	case "add_vertex":
		return OpAddVertex, nil
	default:
		return 0, fmt.Errorf("delta: unknown op kind %q", s)
	}
}

// Op is one mutation operation. From/To/Weight are meaningful per kind:
// edge ops use all three (Weight ignored by remove), OpAddVertex uses none.
type Op struct {
	Kind   OpKind
	From   graph.VertexID
	To     graph.VertexID
	Weight float32
}

// Validate range-checks op against a graph of n vertices (n already
// includes vertices added earlier in the same staged batch) and checks the
// weight. It returns the vertex count after the op.
func (op Op) Validate(n int) (int, error) {
	switch op.Kind {
	case OpAddEdge, OpRemoveEdge, OpSetWeight:
		if op.From < 0 || int(op.From) >= n {
			return n, fmt.Errorf("delta: %s source %d out of range [0,%d)", op.Kind, op.From, n)
		}
		if op.To < 0 || int(op.To) >= n {
			return n, fmt.Errorf("delta: %s target %d out of range [0,%d)", op.Kind, op.To, n)
		}
		if op.Kind != OpRemoveEdge {
			if op.Weight < 0 || math.IsNaN(float64(op.Weight)) {
				return n, fmt.Errorf("delta: %s weight %v invalid", op.Kind, op.Weight)
			}
		}
		return n, nil
	case OpAddVertex:
		return n + 1, nil
	default:
		return n, fmt.Errorf("delta: unknown op kind %d", uint8(op.Kind))
	}
}

// ValidateOps range-checks a whole batch against a view of n vertices.
func ValidateOps(ops []Op, n int) error {
	var err error
	for i, op := range ops {
		if n, err = op.Validate(n); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// OpStatus is the per-op outcome of an Apply.
type OpStatus uint8

// Apply outcomes. A NoOp is an op that referenced a non-existent edge
// (remove/set_weight of an edge that is not there); the batch still
// commits, the op just had nothing to do.
const (
	OpApplied OpStatus = iota
	OpNoOp
)

// ---------------------------------------------------------------------------
// Replayable stream format
//
// One op per line, whitespace-separated:
//
//	add_edge <from> <to> <weight>
//	remove_edge <from> <to>
//	set_weight <from> <to> <weight>
//	add_vertex
//
// Blank lines and lines starting with '#' are skipped. qgraph-gen emits
// this format alongside generated graphs; tests, qgraphd's smoke test
// among them, replay it.

// FormatOp renders op in the stream format (without newline).
func FormatOp(op Op) string {
	switch op.Kind {
	case OpAddEdge, OpSetWeight:
		return fmt.Sprintf("%s %d %d %g", op.Kind, op.From, op.To, op.Weight)
	case OpRemoveEdge:
		return fmt.Sprintf("%s %d %d", op.Kind, op.From, op.To)
	default:
		return op.Kind.String()
	}
}

// ParseOp parses one stream-format line.
func ParseOp(line string) (Op, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Op{}, fmt.Errorf("delta: empty op line")
	}
	kind, err := KindFromString(fields[0])
	if err != nil {
		return Op{}, err
	}
	op := Op{Kind: kind}
	want := map[OpKind]int{OpAddEdge: 4, OpRemoveEdge: 3, OpSetWeight: 4, OpAddVertex: 1}[kind]
	if len(fields) != want {
		return Op{}, fmt.Errorf("delta: %s takes %d fields, got %d", kind, want-1, len(fields)-1)
	}
	vertex := func(s string) (graph.VertexID, error) {
		v, err := strconv.ParseInt(s, 10, 32)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("delta: bad vertex id %q", s)
		}
		return graph.VertexID(v), nil
	}
	if kind != OpAddVertex {
		if op.From, err = vertex(fields[1]); err != nil {
			return Op{}, err
		}
		if op.To, err = vertex(fields[2]); err != nil {
			return Op{}, err
		}
	}
	if kind == OpAddEdge || kind == OpSetWeight {
		w, err := strconv.ParseFloat(fields[3], 32)
		if err != nil || w < 0 || math.IsNaN(w) {
			return Op{}, fmt.Errorf("delta: bad weight %q", fields[3])
		}
		op.Weight = float32(w)
	}
	return op, nil
}

// WriteOps writes ops in the stream format, one per line.
func WriteOps(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		if _, err := bw.WriteString(FormatOp(op)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadOps parses a whole stream, skipping blanks and '#' comments.
func ReadOps(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		op, err := ParseOp(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}
