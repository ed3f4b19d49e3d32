package main

import (
	"math"
	"sort"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/delta"
	"qgraph/internal/metrics"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric of the benchmark: its unit, which way is
// better, and — for end-to-end metrics — the share of the baseline's
// median by which it may worsen before that counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a caller of the system sees. The same names, units
// and bounds are in BENCHMARK.json, except commit_p50_ms: it exists only on
// mixed_rw, and BENCHMARK.json wants every end-to-end metric on every
// workload, so there it is listed per-layer and `compare` enforces its
// bound.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics of single layers, in the order README.md
// explains them. They have no bound: they say where an end-to-end number
// comes from, not whether it is acceptable. BENCHMARK.json repeats the list.
var perLayer = []metricDef{
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "http.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "controller.self_us", Unit: "us", Better: "lower"},
	{Name: "worker.self_us", Unit: "us", Better: "lower"},
	{Name: "delta.self_us", Unit: "us", Better: "lower"},
	{Name: "wal.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_flushes", Unit: "count", Better: "lower"},
	{Name: "serve.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.supersteps_per_query", Unit: "count", Better: "lower"},
	{Name: "controller.round_us", Unit: "us", Better: "lower"},
	{Name: "controller.locality", Unit: "ratio", Better: "higher"},
	{Name: "controller.single_worker_share", Unit: "ratio", Better: "higher"},
	{Name: "controller.repartitions", Unit: "count", Better: "lower"},
	{Name: "controller.drift_x", Unit: "x", Better: "lower"},
	{Name: "worker.compute_us_per_step", Unit: "us", Better: "lower"},
	{Name: "worker.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.msgs_per_query", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "transport.vertex_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "transport.barrier_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "transport.send_us", Unit: "us", Better: "lower"},
	{Name: "delta.apply_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "delta.live_versions_peak", Unit: "count", Better: "lower"},
	{Name: "delta.compactions", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_batch", Unit: "count", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "snapshot.cuts", Unit: "count", Better: "higher"},
	{Name: "snapshot.cut_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.ref_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "graph.engine_overhead_x", Unit: "x", Better: "lower"},
	{Name: "partition.ms", Unit: "ms", Better: "lower"},
	{Name: "partition.edge_cut", Unit: "count", Better: "lower"},
}

// driverEndToEnd is endToEnd as BENCHMARK.json lists it.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, def := range endToEnd {
		if def.Name != "commit_p50_ms" {
			out = append(out, def)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(ns float64) float64      { return ns / 1e3 }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-quantile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle value of v (the mean of the middle two when their
// number is even, as Python's statistics.median has it).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tailPercentile is the highest percentile, at most the 99th, that still
// has ten samples beyond it.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// timed calls f on every timed operation of the pass.
func (p *pass) timed(f func(o *op, r *result)) {
	for _, cr := range p.clients {
		for j := cr.warm; j < cr.done; j++ {
			f(&cr.ops[j], &cr.results[j])
		}
	}
}

// summary is the client-side view of one pass.
type summary struct {
	attempted, failed int
	reads, okReads    int
	readMS, commitMS  []float64 // sorted latencies of answered operations
	qps               float64
	tail              float64 // the percentile reported as p99_ms
}

func summarize(p *pass, wrong int) summary {
	var s summary
	p.timed(func(o *op, r *result) {
		s.attempted++
		if !r.ok() {
			s.failed++
		}
		switch {
		case o.mutate():
			if r.ok() {
				s.commitMS = append(s.commitMS, ms(r.latency))
			}
		default:
			s.reads++
			if r.ok() {
				s.okReads++
				s.readMS = append(s.readMS, ms(r.latency))
			}
		}
	})
	s.failed += wrong
	sort.Float64s(s.readMS)
	sort.Float64s(s.commitMS)
	s.qps = ratio(float64(s.okReads-wrong), p.wall.Seconds())
	s.tail = tailPercentile(len(s.readMS))
	return s
}

func (s *summary) endToEnd(wl *workload, setups []float64) map[string]metric {
	out := map[string]metric{
		"qps":     {s.qps, "1/s"},
		"p50_ms":  {percentile(s.readMS, 0.5), "ms"},
		"p99_ms":  {percentile(s.readMS, s.tail), "ms"},
		"setup_s": {median(setups), "s"},
	}
	if wl.durable {
		out["commit_p50_ms"] = metric{percentile(s.commitMS, 0.5), "ms"}
	}
	return out
}

// engineSide is what the harness reads off the engine before closing it.
type engineSide struct {
	queries     []metrics.QueryRecord // executed since the timed start
	compactions uint64
}

func readEngine(eng *core.Engine, since time.Time) engineSide {
	var es engineSide
	for _, q := range eng.Recorder().Queries() {
		if !q.ScheduledAt.Before(since) {
			es.queries = append(es.queries, q)
		}
	}
	if v, ok := eng.GraphView().(*delta.View); ok {
		es.compactions = v.Compactions()
	}
	return es
}

// driftX is the median latency of each client's last tenth of timed reads
// over that of its first tenth: above 1 when serving a query costs more
// the more queries came before it.
func driftX(p *pass) float64 {
	var first, last []float64
	for _, cr := range p.clients {
		var lat []float64
		for j := cr.warm; j < cr.done; j++ {
			if !cr.ops[j].mutate() && cr.results[j].ok() {
				lat = append(lat, ms(cr.results[j].latency))
			}
		}
		n := len(lat) / 10
		first = append(first, lat[:n]...)
		last = append(last, lat[len(lat)-n:]...)
	}
	return ratio(median(last), median(first))
}

// layerMetrics derives every per-layer metric. u is the untraced pass, t
// the traced one; numbers that need no wrapper come from u, so they are
// free of tracing overhead.
func layerMetrics(u, t *measured) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	set := func(name string, v float64) {
		for _, def := range perLayer {
			if def.Name == name {
				m[name] = metric{v, def.Unit}
				return
			}
		}
		panic("layer metric " + name + " is not declared in perLayer")
	}

	// End-to-end metrics that exist on one workload only, or that cannot
	// hold a bound, are reported here.
	set("commit_p50_ms", percentile(u.sum.commitMS, 0.5))
	set("trace_overhead_pct", 100*ratio(u.sum.qps-t.sum.qps, u.sum.qps))

	// serve
	var queueMS []float64
	hits, executed, single := 0, 0, 0
	u.pass.timed(func(o *op, r *result) {
		if o.mutate() || !r.ok() {
			return
		}
		queueMS = append(queueMS, r.queueMS)
		if r.hit {
			hits++
			return
		}
		executed++
		if r.workers == 1 {
			single++
		}
	})
	sort.Float64s(queueMS)
	set("serve.queue_wait_ms", percentile(queueMS, 0.99))
	set("serve.cache_hit_ratio", ratio(float64(hits), float64(u.sum.okReads)))
	set("serve.cache_flushes", float64(u.pass.stats1.Cache.Flushes-u.pass.stats0.Cache.Flushes))
	set("serve.p99_ms", percentile(u.sum.readMS, u.sum.tail))

	// controller (engine-side records of the untraced pass)
	var supersteps, local int
	for _, q := range u.eng.queries {
		supersteps += q.Supersteps
		local += q.LocalIters
	}
	nq := float64(len(u.eng.queries))
	set("controller.supersteps_per_query", ratio(float64(supersteps), nq))
	set("controller.locality", ratio(float64(local), float64(supersteps)))
	set("controller.single_worker_share", ratio(float64(single), float64(executed)))
	set("controller.repartitions", float64(u.pass.stats1.Engine.RepartitionEpoch-u.pass.stats0.Engine.RepartitionEpoch))
	set("controller.drift_x", driftX(u.pass))

	// trace rows: mean self time per timed request, summing to the mean
	// client round trip.
	rows := t.rows
	n := float64(rows.requests)
	set("trace.rtt_us", us(ratio(float64(rows.client), n)))
	set("client.self_us", us(ratio(float64(rows.client-rows.http), n)))
	set("http.self_us", us(ratio(float64(rows.http-rows.serve), n)))
	set("serve.self_us", us(ratio(float64(rows.serve-rows.engine-rows.commit), n)))
	set("controller.self_us", us(ratio(float64(rows.engine-rows.worker), n)))
	set("worker.self_us", us(ratio(float64(rows.worker), n)))
	set("delta.self_us", us(ratio(float64(rows.commit-rows.fsync), n)))
	set("wal.self_us", us(ratio(float64(rows.fsync), n)))

	// controller / worker / transport (wrappers of the traced pass)
	nc := t.net
	var tracedSteps int
	for _, q := range t.eng.queries {
		tracedSteps += q.Supersteps
	}
	engineQueries := float64(rows.engineSpans)
	set("controller.round_us", us(ratio(float64(rows.engine-rows.worker), float64(tracedSteps))))
	set("worker.compute_us_per_step", us(ratio(float64(nc.computeNS), float64(nc.reports))))
	set("worker.msgs_per_s", ratio(float64(nc.vertexEntries), t.pass.wall.Seconds()))
	set("transport.msgs_per_query", ratio(float64(nc.msgs), engineQueries))
	set("transport.bytes_per_query", ratio(float64(nc.bytes), engineQueries))
	set("transport.vertex_bytes_per_query", ratio(float64(nc.vertexBytes), engineQueries))
	set("transport.barrier_bytes_per_query", ratio(float64(nc.barrierBytes), engineQueries))
	set("transport.send_us", us(ratio(float64(nc.sendNS), float64(nc.msgs))))

	// delta / wal / snapshot (server counters of the untraced pass)
	s0, s1 := &u.pass.stats0, &u.pass.stats1
	appliedOps := float64(s1.Serve.MutationsApplied - s0.Serve.MutationsApplied)
	sentOps := float64(s1.Serve.MutationOps - s0.Serve.MutationOps)
	appends := float64(s1.WAL.Appends - s0.WAL.Appends)
	fsyncs := float64(s1.WAL.Fsyncs - s0.WAL.Fsyncs)
	fsyncUS := float64(u.pass.fsyncUS())
	set("delta.apply_ops_per_s", ratio(appliedOps, u.pass.wall.Seconds()))
	set("delta.live_versions_peak", float64(s1.MVCC.Peak))
	set("delta.compactions", float64(u.eng.compactions))
	set("wal.fsyncs_per_batch", ratio(fsyncs, appends))
	set("wal.append_us", ratio(fsyncUS, fsyncs))
	set("wal.bytes_per_op", ratio(float64(s1.WAL.AppendedBytes-s0.WAL.AppendedBytes), sentOps))
	set("snapshot.cuts", float64(s1.Snapshot.Snapshots-s0.Snapshot.Snapshots))
	set("snapshot.cut_ms", s1.Snapshot.LastCutMS)
	set("snapshot.restart_ms", u.dur.restartMS)

	// graph / partition
	set("graph.ref_ms_per_query", u.check.refMS)
	set("graph.engine_overhead_x", ratio(u.check.refEng, u.check.refMS))
	set("partition.ms", ms(u.partitionTime))
	set("partition.edge_cut", float64(u.edgeCut))
	return m
}

// traceRows sums the spans of the timed requests of a traced pass.
type traceRows struct {
	requests, engineSpans               int
	client, http, serve, engine, commit int64 // total span time, ns
	worker                              int64 // critical-path compute inside engine
	fsync                               int64 // WAL fsync time inside commit
}

// rowsOf folds the spans of the timed requests. The fsync total comes from
// the WAL's own counters, capped by the commit spans it happened inside.
func rowsOf(p *pass, spans []span) traceRows {
	timed := make(map[uint64]bool)
	p.timed(func(_ *op, r *result) {
		if r.ok() {
			timed[r.req] = true
		}
	})
	var rows traceRows
	for i := range spans {
		s := &spans[i]
		if !timed[s.Req] {
			continue
		}
		d := s.End - s.Start
		switch s.Name {
		case spanClient:
			rows.requests++
			rows.client += d
		case spanHTTP:
			rows.http += d
		case spanServe:
			rows.serve += d
		case spanEngine:
			rows.engineSpans++
			rows.engine += d
			rows.worker += min(d, s.WorkerNS)
		case spanCommit:
			rows.commit += d
		}
	}
	rows.fsync = min(rows.commit, p.fsyncUS()*1000)
	return rows
}

// fsyncUS is the time the WAL spent in fsync during the timed operations,
// from its own counters.
func (p *pass) fsyncUS() int64 {
	s0, s1 := &p.stats0.WAL, &p.stats1.WAL
	return s1.MeanFsyncUS*s1.Fsyncs - s0.MeanFsyncUS*s0.Fsyncs
}
