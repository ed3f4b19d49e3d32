package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/wal"
)

// oracleSamples is how many timed reads per pass are checked against the
// sequential reference.
const oracleSamples = 64

// sample names one timed read of a pass.
type sample struct{ client, idx int }

// pickSamples draws up to n answered timed reads, the same ones for the
// same seed and plan.
func pickSamples(p *pass, seed uint64, n int) []sample {
	var all []sample
	for c, cr := range p.clients {
		for j := cr.warm; j < cr.done; j++ {
			if !cr.ops[j].mutate() && cr.results[j].ok() {
				all = append(all, sample{c, j})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(n, len(all))]
}

// agrees reports whether the served answer equals the reference on g.
func agrees(g *graph.Graph, spec query.Spec, r *result) bool {
	sameDist := func(ref float64) bool {
		if ref == graph.Inf {
			return !r.hasValue
		}
		return r.hasValue && math.Abs(r.value-ref) <= 1e-9*math.Max(1, math.Abs(ref))
	}
	switch spec.Kind {
	case query.KindSSSP:
		return sameDist(graph.DijkstraTo(g, spec.Source, spec.Target))
	case query.KindPOI:
		_, d := graph.NearestTagged(g, spec.Source)
		return sameDist(d)
	case query.KindPageRank:
		// PageRank has no goal vertex, so the response carries no value;
		// what it does carry is the size of the scope the push process
		// reached, which the sequential reference reproduces exactly.
		return !r.hasValue && r.touched == len(query.RefPageRank(g, spec))
	}
	return false
}

// versions rebuilds every committed graph version a durable workload
// produced, from nothing but the batches the server acknowledged.
type versions struct {
	base  *graph.Graph
	byVer map[uint64][]delta.Op // acknowledged ops, grouped by commit version
	last  uint64
}

func ackedVersions(base *graph.Graph, p *pass) (*versions, error) {
	vs := &versions{base: base, byVer: make(map[uint64][]delta.Op)}
	for _, cr := range p.clients {
		for j := 0; j < cr.done; j++ {
			if !cr.ops[j].mutate() {
				continue
			}
			r := &cr.results[j]
			if !r.ok() {
				// An unacknowledged batch may still have committed; without
				// its version the history cannot be rebuilt.
				return nil, fmt.Errorf("mutation %d of a client failed (status %d); committed history unknown", j, r.status)
			}
			// Batches of different clients touch disjoint adjacency lists,
			// so their order inside one version does not matter.
			vs.byVer[r.version] = append(vs.byVer[r.version], cr.ops[j].ops...)
			vs.last = max(vs.last, r.version)
		}
	}
	for v := uint64(1); v <= vs.last; v++ {
		if vs.byVer[v] == nil {
			return nil, fmt.Errorf("no acknowledged batch for committed version %d of %d", v, vs.last)
		}
	}
	return vs, nil
}

// materialize returns the standalone graph of each wanted version.
func (vs *versions) materialize(want map[uint64]bool) (map[uint64]*graph.Graph, error) {
	out := make(map[uint64]*graph.Graph, len(want))
	view := delta.NewView(vs.base)
	if want[0] {
		out[0] = vs.base
	}
	for v := uint64(1); v <= vs.last; v++ {
		next, _, err := view.Apply(vs.byVer[v])
		if err != nil {
			return nil, fmt.Errorf("replaying acknowledged version %d: %w", v, err)
		}
		view = next
		if want[v] {
			out[v] = view.Materialize()
		}
	}
	return out, nil
}

// checked is the outcome of the answer oracle on one pass.
type checked struct {
	samples int
	wrong   int
	refMS   float64 // mean reference time per sampled query
	refEng  float64 // mean engine_ms of the same queries
}

// checkAnswers compares the sampled reads with the sequential reference on
// the graph version they were served at. base is the version-0 graph; vs
// is nil on workloads without writes.
func checkAnswers(base *graph.Graph, vs *versions, p *pass, samples []sample) (checked, error) {
	out := checked{samples: len(samples)}
	graphs := map[uint64]*graph.Graph{0: base}
	if vs != nil {
		want := make(map[uint64]bool)
		for _, s := range samples {
			r := &p.clients[s.client].results[s.idx]
			for v := r.sawVersion; v <= r.version; v++ {
				want[v] = true
			}
		}
		var err error
		if graphs, err = vs.materialize(want); err != nil {
			return out, err
		}
	}
	var refTime time.Duration
	for _, s := range samples {
		cr := p.clients[s.client]
		r, spec := &cr.results[s.idx], cr.ops[s.idx].spec
		out.refEng += r.engineMS
		good := false
		// The response header names the newest version committed when the
		// answer left; the query was pinned no earlier than the newest
		// version the clients knew when it was sent.
		for v := r.sawVersion; v <= r.version && !good; v++ {
			g := graphs[v]
			if g == nil {
				return out, fmt.Errorf("sampled read served at version %d, which was never acknowledged", v)
			}
			t0 := time.Now()
			good = agrees(g, spec, r)
			if v == r.sawVersion {
				refTime += time.Since(t0)
			}
		}
		if !good {
			out.wrong++
		}
	}
	if len(samples) > 0 {
		out.refMS = float64(refTime) / float64(time.Millisecond) / float64(len(samples))
		out.refEng /= float64(len(samples))
	}
	return out, nil
}

// durability is the outcome of restarting from the bytes on disk.
type durability struct {
	restartMS float64
	version   uint64
	ok        bool
	why       string
}

// checkDurability recovers the graph the way a restarted node does — newest
// snapshot, then the WAL tail — and requires the last acknowledged version
// and, on the sampled queries, the answers of the harness's own replay.
func checkDurability(st *stack, vs *versions, p *pass, samples []sample) (durability, error) {
	t0 := time.Now()
	baseG, baseV := vs.base, uint64(0)
	snap, err := snapshot.LoadLatest(st.snapDir)
	if err != nil {
		return durability{}, fmt.Errorf("loading latest snapshot: %w", err)
	}
	if snap != nil {
		baseG, baseV = snap.Graph, snap.Version
	}
	g, v, err := wal.RecoverGraph(st.walDir, st.graphID, baseG, baseV)
	if err != nil {
		return durability{}, fmt.Errorf("recovering from the WAL: %w", err)
	}
	d := durability{restartMS: float64(time.Since(t0)) / float64(time.Millisecond), version: v}
	if v != vs.last {
		d.why = fmt.Sprintf("recovered version %d, last acknowledged %d", v, vs.last)
		return d, nil
	}
	final, err := vs.materialize(map[uint64]bool{vs.last: true})
	if err != nil {
		return d, err
	}
	want := final[vs.last]
	for _, s := range samples {
		spec := p.clients[s.client].ops[s.idx].spec
		var a, b float64
		if spec.Kind == query.KindPOI {
			_, a = graph.NearestTagged(g, spec.Source)
			_, b = graph.NearestTagged(want, spec.Source)
		} else {
			a = graph.DijkstraTo(g, spec.Source, spec.Target)
			b = graph.DijkstraTo(want, spec.Source, spec.Target)
		}
		if a != b {
			d.why = fmt.Sprintf("recovered graph answers %v for %s %d→%d, acknowledged history answers %v",
				a, spec.Kind, spec.Source, spec.Target, b)
			return d, nil
		}
	}
	d.ok = true
	return d, nil
}
