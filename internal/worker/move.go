package worker

import (
	"fmt"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// This file implements the worker side of the controller's move requests
// (Sec. 3.2.1 step 3, "Execute"): relocating a local query scope — the
// vertices a query touched here — to another worker, together with every
// query's private data and pending messages for those vertices. Moves only
// happen inside a global barrier, after every worker's markers flushed the
// vertex-message links, so no in-flight message can target a vertex
// mid-move.

// onMoveScope executes move(LS(q,w), w, w'): collect the scope's vertices,
// strip their state out of every local query, and ship it to the target,
// which acknowledges the move to the controller.
func (w *Worker) onMoveScope(m *protocol.MoveScope) error {
	if w.bar.arrived == nil {
		return fmt.Errorf("move for query %d outside global barrier", m.Q)
	}
	if int(m.To) >= w.k || m.To == w.id {
		return fmt.Errorf("move for query %d to invalid worker %d", m.Q, m.To)
	}

	// The scope may be a live query's data, a finished query's remembered
	// vertex set, or both (nothing, if the scope decayed — then the move
	// ships an empty ScopeData, which the target still acknowledges).
	verts := make(map[graph.VertexID]bool)
	if qs, ok := w.queries[m.Q]; ok {
		for _, v := range qs.data.keys {
			if !w.bar.arrived[v] {
				verts[v] = true
			}
		}
	}
	if fs := w.finished[m.Q]; fs != nil {
		for v := range fs.verts {
			if w.owner[v] == w.id && !w.bar.arrived[v] {
				verts[v] = true
			}
		}
	}

	// Collect per-vertex migratable state.
	byV := make(map[graph.VertexID]*protocol.MovedVertex, len(verts))
	for v := range verts {
		byV[v] = &protocol.MovedVertex{V: v}
	}
	for q2, qs2 := range w.queries {
		// Ranging backwards, del only moves visited entries.
		for i := qs2.data.len() - 1; i >= 0; i-- {
			if v := qs2.data.keys[i]; verts[v] {
				byV[v].Values = append(byV[v].Values, protocol.QueryValue{Q: q2, Val: qs2.data.vals[i]})
				qs2.data.del(v)
				blk := graph.VertexID(protocol.BlockOf(v))
				if n, _ := qs2.sig.get(blk); n > 1 {
					qs2.sig.set(blk, n-1)
				} else {
					qs2.sig.del(blk)
				}
			}
		}
		for step, box := range qs2.inbox {
			for i := box.len() - 1; i >= 0; i-- {
				if v := box.keys[i]; verts[v] {
					byV[v].Pending = append(byV[v].Pending, protocol.PendingMsg{Q: q2, Step: step, Val: box.vals[i]})
					box.del(v)
				}
			}
		}
	}
	for _, fs2 := range w.finishOrder {
		forShared(fs2.verts, verts, func(v graph.VertexID) {
			byV[v].Finished = append(byV[v].Finished, fs2.q)
			delete(fs2.verts, v)
			fs2.sig.add(v, -1)
		})
	}
	moved := make([]protocol.MovedVertex, 0, len(verts))
	for v := range verts {
		w.owner[v] = m.To
		moved = append(moved, *byV[v])
	}
	// A target that just died fails the send, as it fails a vertex batch;
	// recovery then aborts the barrier and replaces the moved state.
	w.conn.Send(protocol.WorkerNode(m.To), &protocol.ScopeData{
		Epoch: m.Epoch, Q: m.Q, From: w.id, Gen: w.bar.gen, Vertices: moved,
	})
	return nil
}

// forShared calls fn for every vertex of scope that is also in verts (fn may
// delete it from scope). It iterates the smaller set, so a barrier costs
// O(total scope mass), not O(moved vertices × remembered queries).
func forShared(scope, verts map[graph.VertexID]bool, fn func(graph.VertexID)) {
	if len(scope) <= len(verts) {
		for v := range scope {
			if verts[v] {
				fn(v)
			}
		}
		return
	}
	for v := range verts {
		if scope[v] {
			fn(v)
		}
	}
}

// onScopeData absorbs moved vertices: adopt ownership, merge live query
// values and pending messages, and remember finished-scope memberships. Then
// it acknowledges the move to the controller with the moved vertex ids.
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
		for _, qv := range mv.Values {
			if qs, ok := w.queries[qv.Q]; ok {
				if _, had := qs.data.get(mv.V); !had {
					qs.touch(mv.V)
				}
				qs.data.set(mv.V, qv.Val)
			} else {
				// The query finished while the move was decided; keep the
				// vertex in its remembered scope so the hotspot stays
				// movable.
				w.rememberFinished(qv.Q, mv.V)
			}
		}
		for _, pm := range mv.Pending {
			if qs, ok := w.queries[pm.Q]; ok {
				w.combineIn(qs, pm.Step, mv.V, pm.Val)
			}
			// Pending messages of finished queries are obsolete: the
			// controller only finishes a query when its result is final.
		}
		for _, fq := range mv.Finished {
			w.rememberFinished(fq, mv.V)
		}
	}
	return w.conn.Send(protocol.ControllerNode, &protocol.MoveAck{
		Epoch: m.Epoch, Q: m.Q, From: m.From, To: w.id, Vertices: ids,
	})
}

// rememberFinished records v in finished query q's scope, if q is remembered.
func (w *Worker) rememberFinished(q query.ID, v graph.VertexID) {
	fs := w.finished[q]
	if fs == nil || fs.verts[v] {
		return
	}
	if fs.verts == nil {
		fs.verts = make(map[graph.VertexID]bool)
	}
	fs.verts[v] = true
	fs.sig.add(v, 1)
}
