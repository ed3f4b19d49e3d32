package protocol

import (
	"qgraph/internal/partition"
	"qgraph/internal/query"
)

// StepSummary is what the continue-or-finish decision reads of one
// worker's superstep. In a run of several workers (see BarrierReady) the
// last VertexBatch of the superstep carries it to each other involved
// worker. A BarrierSynch carries the summary of its last superstep to the
// controller, which decides on the supersteps every involved worker's
// reports end at.
type StepSummary struct {
	NActiveNext int32   // local activations pending for the next superstep
	MinFrontier float64 // min over pending local msgs + values sent in the step
	BestGoal    float64 // best goal value seen on the worker (query.NoResult if none)
	SentBatches []int32 // vertex batches sent during the step, by dest worker
}

// Summary is the decision's view of report m.
func (m *BarrierSynch) Summary() StepSummary {
	return StepSummary{NActiveNext: m.NActiveNext, MinFrontier: m.MinFrontier, BestGoal: m.BestGoal, SentBatches: m.SentBatches}
}

// Rules are a query's termination rules.
type Rules struct {
	Monotone bool // the program's bound may end a goal query early
	MaxIters int  // the spec's MaxIters; 0 is unbounded
}

// Decision is the outcome of a fully reported superstep: End says why the
// query ends; otherwise Next holds the workers the next superstep involves
// and Expect the batch count each of them must await.
type Decision struct {
	End      FinishReason
	Next     map[partition.WorkerID]bool
	Expect   map[partition.WorkerID]int32
	BestGoal float64 // the best goal so far, the step's included
}

// Decide takes the continue-or-finish decision on superstep step into d,
// from the summaries of every worker the step involved, sums[i] that of
// peers[i], and best, the best goal found before it. The controller takes
// it on every fully reported superstep, and the workers of a run (see
// BarrierReady) on their own summaries: one function over the same inputs,
// so they agree. d's maps are cleared and reused, or made if nil, so a
// caller that keeps d and its slices, as a run does, allocates nothing a
// decision.
//
// A query ends when no active vertex remains (Sec. 2); the monotone bound
// additionally ends a goal query as soon as no in-flight value can beat
// the best goal, which is what confines localized queries to their region;
// and MaxIters caps the supersteps.
func (r Rules) Decide(d *Decision, step int32, best float64, peers []partition.WorkerID, sums []StepSummary) {
	if d.Next == nil {
		d.Next, d.Expect = make(map[partition.WorkerID]bool), make(map[partition.WorkerID]int32)
	}
	clear(d.Next)
	clear(d.Expect)
	d.End, d.BestGoal = 0, best
	minFrontier := query.NoResult
	for i, s := range sums {
		d.BestGoal = min(d.BestGoal, s.BestGoal)
		minFrontier = min(minFrontier, s.MinFrontier)
		if s.NActiveNext > 0 {
			d.Next[peers[i]] = true
		}
		for dst, nb := range s.SentBatches {
			if nb > 0 {
				d.Expect[partition.WorkerID(dst)] += nb
				d.Next[partition.WorkerID(dst)] = true
			}
		}
	}
	switch {
	case len(d.Next) == 0:
		d.End = FinishConverged
	case r.Monotone && d.BestGoal < query.NoResult && minFrontier >= d.BestGoal:
		d.End = FinishEarly
	case r.MaxIters > 0 && int(step)+1 >= r.MaxIters:
		d.End = FinishMaxIters
	}
}

// Runs says whether the workers of peers, a run's involved set, release
// the next superstep themselves: d continues over some of them and no other
// worker. Those in Next run it, as a run over Next, sorted; the others go
// idle. Both halves of the barrier take this one predicate.
func (d Decision) Runs(peers []partition.WorkerID) bool {
	n := 0
	for _, w := range peers {
		if d.Next[w] {
			n++
		}
	}
	return d.End == 0 && n > 0 && n == len(d.Next)
}
