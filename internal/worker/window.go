package worker

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// This file is the worker's side of the monitoring window (Sec. 3.4): what
// it remembers of finished scopes, and the intersection statistics a
// StatsPull asks for.

const sigShift = protocol.SigShift

type sigBlock struct{ blk, n int32 } // n touched vertices in id block blk

// frozenSig is a coarse signature of a finished scope: touched vertices per
// sigShift-sized id block, in the order the scope entered them. Intersection
// statistics are estimated from signatures instead of exact key-set walks,
// which makes the Iw report (Sec. 3.4) a pass over O(scope/2^sigShift)
// blocks per query pair — the clustering that consumes them only needs
// affinity — and pairs scatters one side, so it needs no order. Only scope
// moves (add) look a block up: the first sorts the blocks, and a scope no
// move reaches is never sorted.
type frozenSig struct {
	blocks []sigBlock
	sorted bool // by blk
}

func freezeSig(sig *table[float64]) frozenSig {
	out := make([]sigBlock, 0, sig.len())
	for i, blk := range sig.keys {
		out = append(out, sigBlock{int32(blk), int32(sig.vals[i])})
	}
	return frozenSig{blocks: out}
}

// add counts vertex v into (d = 1) or out of (d = -1) the signature.
func (s *frozenSig) add(v graph.VertexID, d int32) {
	byBlock := func(a, b sigBlock) int { return cmp.Compare(a.blk, b.blk) }
	if !s.sorted {
		slices.SortFunc(s.blocks, byBlock)
		s.sorted = true
	}
	blk := int32(v) >> sigShift
	i, ok := slices.BinarySearchFunc(s.blocks, sigBlock{blk: blk}, byBlock)
	if !ok {
		s.blocks = slices.Insert(s.blocks, i, sigBlock{blk: blk})
	}
	if s.blocks[i].n += d; s.blocks[i].n <= 0 {
		s.blocks = slices.Delete(s.blocks, i, i+1)
	}
}

// finishedScope is what a worker remembers of a finished query (see remember
// for how long): that it finished, which tells late batches from batches that
// raced ahead of the ExecuteQuery broadcast on another link; its local vertex
// set, so move directives can still relocate the hotspot; and its signature,
// for the pairs a StatsPull asks for while it is windowed.
type finishedScope struct {
	q     query.ID
	verts map[graph.VertexID]bool
	sig   frozenSig
	at    time.Time
}

// rememberedScopes caps finishOrder: a move directive names a query of the
// window its plan started from, at most 333 finishes old (measured) when run.
const rememberedScopes = 8 * protocol.WindowQueries

// remember appends fs to the finish order and forgets what μ or the cap excludes.
func (w *Worker) remember(fs *finishedScope) {
	w.finished[fs.q] = fs
	w.finishOrder = append(w.finishOrder, fs)
	for fs.at.Sub(w.finishOrder[0].at) > protocol.DefaultMu || len(w.finishOrder) > rememberedScopes {
		if old := w.finishOrder[0]; w.finished[old.q] == old {
			delete(w.finished, old.q)
		}
		w.finishOrder[0] = nil
		w.finishOrder = w.finishOrder[1:]
	}
}

// window returns the newest finished queries: the controller's monitoring
// window, since QueryFinish is broadcast in the order that one fills.
func (w *Worker) window() []*finishedScope {
	return w.finishOrder[max(0, len(w.finishOrder)-protocol.WindowQueries):]
}

// pairs estimates |LS(q) ∩ LS(q2)| for the pairs the monitoring window holds
// — the worker-side transformation of low-level vertex knowledge into the
// high-level intersection function Iw of Sec. 3.4, computed when the
// controller pulls it. Each windowed scope is paired with the ones that
// finished before it and with the live queries, in ascending id, so a report
// is the same on every run. Finished partners matter most: queries of one
// hotspot rarely overlap in time, and these temporal chains let Q-cut's
// clustering move a hotspot as a unit.
//
// Each estimate is Σ_block min over the two signatures, taken in one pass
// over the partner's blocks against the windowed scope scattered into
// w.scratch.
func (w *Worker) pairs() []protocol.IntersectionStat {
	// Every scope's vertices are below len(w.owner), which grows with the
	// graph (onDeltaBatch).
	if n := len(w.owner)>>sigShift + 1; len(w.scratch) < n {
		w.scratch = make([]int32, n)
	}
	scratch := w.scratch
	live := slices.Sorted(maps.Keys(w.queries))
	win := w.window()
	var out []protocol.IntersectionStat
	for i, fs := range win {
		if len(fs.sig.blocks) == 0 {
			continue // nothing of it here, or moved away
		}
		for _, b := range fs.sig.blocks {
			scratch[b.blk] = b.n
		}
		for _, old := range win[:i] {
			var shared int32
			for _, b := range old.sig.blocks {
				shared += min(scratch[b.blk], b.n)
			}
			if shared > 0 {
				out = append(out, protocol.IntersectionStat{Q1: fs.q, Q2: old.q, Shared: shared})
			}
		}
		for _, q2 := range live {
			var shared int32
			sig := w.queries[q2].sig
			for i, blk := range sig.keys {
				shared += min(scratch[blk], int32(sig.vals[i]))
			}
			if shared > 0 {
				out = append(out, protocol.IntersectionStat{Q1: fs.q, Q2: q2, Shared: shared})
			}
		}
		for _, b := range fs.sig.blocks {
			scratch[b.blk] = 0
		}
	}
	return out
}
