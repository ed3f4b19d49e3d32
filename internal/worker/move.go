package worker

import (
	"fmt"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
)

// This file implements the worker side of the controller's move requests
// (Sec. 3.2.1 step 3, "Execute"): relocating a local query scope, named by
// the query's signature blocks, to another worker, together with every live
// query's private data and pending messages for its vertices. Moves only
// happen inside a global barrier, after every worker's markers flushed the
// vertex-message links, so no in-flight message can target a vertex
// mid-move.

// onMoveScope executes move(LS(q,w), w, w'): every vertex this worker owns in
// q's signature blocks leaves, touched by q or not, with its state under
// every live query, for the target, which acknowledges the move to the
// controller.
func (w *Worker) onMoveScope(m *protocol.MoveScope) error {
	if w.bar.arrived == nil {
		return fmt.Errorf("move for query %d outside global barrier", m.Q)
	}
	if int(m.To) >= w.k || m.To == w.id {
		return fmt.Errorf("move for query %d to invalid worker %d", m.Q, m.To)
	}

	// q's blocks are a live query's growing signature or a remembered
	// finished one's (none, if q was forgotten: the move then ships an empty
	// ScopeData, which the target still acknowledges). They are copied: the
	// strip below shrinks a live signature.
	var blocks []int32
	if qs, ok := w.queries[m.Q]; ok {
		for _, blk := range qs.sig.keys {
			blocks = append(blocks, int32(blk))
		}
	} else if fs := w.finished[m.Q]; fs != nil {
		for _, b := range fs.sig {
			blocks = append(blocks, b.blk)
		}
	}
	var moved []protocol.MovedVertex
	at := make(map[graph.VertexID]int) // a moved vertex's index in moved
	for _, blk := range blocks {
		for v := graph.VertexID(blk) << sigShift; v < graph.VertexID(blk+1)<<sigShift && int(v) < len(w.owner); v++ {
			if w.owner[v] == w.id && !w.bar.arrived[v] {
				at[v] = len(moved)
				moved = append(moved, protocol.MovedVertex{V: v})
			}
		}
	}

	// Strip the moved vertices out of every live query. A moved vertex's
	// entry is emptied, not deleted: the active lists index the table's
	// entries. Finished signatures stay as they are (see freezeSig).
	for q2, qs2 := range w.queries {
		vs := qs2.verts
		for i := range vs.vals {
			e, v := &vs.vals[i], vs.keys[i]
			j, ok := at[v]
			if !ok || !e.has {
				continue
			}
			moved[j].Values = append(moved[j].Values, protocol.QueryValue{Q: q2, Val: e.val})
			e.has = false
			vs.scope--
			blk := graph.VertexID(protocol.BlockOf(v))
			if k, _ := qs2.sig.ref(blk); qs2.sig.vals[k] > 1 {
				qs2.sig.vals[k]--
			} else {
				qs2.sig.del(blk)
			}
		}
		for p, act := range vs.active {
			// Ranging backwards, each removal moves a visited entry.
			for i := len(act) - 1; i >= 0; i-- {
				e, v := &vs.vals[act[i]], vs.keys[act[i]]
				if j, ok := at[v]; ok {
					moved[j].Pending = append(moved[j].Pending, protocol.PendingMsg{Q: q2, Step: e.step[p] - 1, Val: e.msg[p]})
					e.step[p] = 0
					act[i], act = act[len(act)-1], act[:len(act)-1]
				}
			}
			vs.active[p] = act
		}
	}
	for _, mv := range moved {
		w.owner[mv.V] = m.To
	}
	// A target that just died fails the send, as it fails a vertex batch;
	// recovery then aborts the barrier and replaces the moved state.
	w.conn.Send(protocol.WorkerNode(m.To), &protocol.ScopeData{
		Epoch: m.Epoch, Q: m.Q, From: w.id, Gen: w.bar.gen, Vertices: moved,
	})
	return nil
}

// onScopeData absorbs moved vertices: adopt ownership and merge live query
// values and pending messages. Then it acknowledges the move to the
// controller with the moved vertex ids.
func (w *Worker) onScopeData(m *protocol.ScopeData) error {
	if m.Gen != w.bar.gen {
		// Scope data from an aborted pre-recovery barrier: the recovery
		// reset discarded the move's bookkeeping on every node, so the
		// transfer must neither merge nor be acknowledged.
		return nil
	}
	if w.bar.arrived == nil {
		return fmt.Errorf("scope data for query %d outside global barrier", m.Q)
	}
	ids := make([]graph.VertexID, 0, len(m.Vertices))
	for _, mv := range m.Vertices {
		ids = append(ids, mv.V)
	}
	if err := w.checkIDs(ids, nil); err != nil {
		return fmt.Errorf("scope data for query %d: %w", m.Q, err)
	}
	for _, mv := range m.Vertices {
		w.owner[mv.V] = w.id
		w.bar.arrive(mv.V)
		// The state of a query that finished while the move was decided is
		// dropped: the controller only finishes a query when its result is
		// final, and its signature stays with the workers it touched.
		for _, qv := range mv.Values {
			if qs, ok := w.queries[qv.Q]; ok {
				i, _ := qs.verts.ref(mv.V)
				qs.touch(i)
				qs.verts.vals[i].val = qv.Val
			}
		}
		for _, pm := range mv.Pending {
			if qs, ok := w.queries[pm.Q]; ok {
				if err := qs.verts.post(pm.Step, mv.V, pm.Val, qs.prog); err != nil {
					return fmt.Errorf("scope data for query %d: %w", m.Q, err)
				}
			}
		}
	}
	return w.conn.Send(protocol.ControllerNode, &protocol.MoveAck{
		Epoch: m.Epoch, Q: m.Q, From: m.From, To: w.id, Vertices: ids,
	})
}
