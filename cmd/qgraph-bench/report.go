package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
)

// Machine-readable benchmarking: each -load run can append itself as a
// named scenario to a JSON report file (-json-out), and sample the
// server's slowest traces (-trace-sample) to attach a phase attribution
// — where the milliseconds of a request actually went. The report is the
// recorded perf trajectory committed as BENCH_<n>.json: rerunning the
// same scenarios against a newer build answers "did we regress" without
// archaeology through CI logs.

// benchLatency is the client-side latency aggregate of one scenario.
type benchLatency struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// benchMutations is the write-plane side of a mixed scenario.
type benchMutations struct {
	Sent            int64        `json:"sent"`
	Applied         int64        `json:"applied"`
	Failed          int64        `json:"failed"`
	Batches         int64        `json:"batches"`
	Writers         int          `json:"writers,omitempty"`
	ApplyThroughput float64      `json:"apply_ops_per_s"`
	Commit          benchLatency `json:"commit_latency"`
	// Group-commit amortization, from the server's WAL stats: fsyncs per
	// committed batch (< 1 when concurrent commits share a sync) and the
	// inverse, batches per fsync. Nil when the server runs without a WAL.
	FsyncsPerBatch      *float64 `json:"fsyncs_per_batch,omitempty"`
	MeanBatchesPerFsync *float64 `json:"mean_batches_per_fsync,omitempty"`
}

// benchRecovery is the fault-schedule outcome of a recovery scenario.
type benchRecovery struct {
	Episodes         int64   `json:"episodes"`
	Handoffs         int64   `json:"handoffs"`
	QueriesRestarted int64   `json:"queries_restarted"`
	RecoveryMS       float64 `json:"recovery_ms"`
	PreKillQPS       float64 `json:"pre_kill_qps"`
	PostRecoveryQPS  float64 `json:"post_recovery_qps"`
}

// benchPhase is one row of the aggregated phase attribution: this
// phase's share of the total traced wall time across the sampled traces.
type benchPhase struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
	Fraction   float64 `json:"fraction"`
}

// benchScenario is one -load run's measurement.
type benchScenario struct {
	RateRPS   float64 `json:"offered_rate_rps"`
	DurationS float64 `json:"duration_s"`
	Pool      int     `json:"pool"`
	Tenants   int     `json:"tenants"`
	Seed      uint64  `json:"seed"`

	Sent           int64   `json:"sent"`
	OK             int64   `json:"ok"`
	Rejected       int64   `json:"rejected_429"`
	Expired        int64   `json:"expired_504"`
	ClientTimeouts int64   `json:"client_timeouts"`
	Failed         int64   `json:"failed"`
	WorkerLost     int64   `json:"worker_lost"`
	GoodputQPS     float64 `json:"goodput_qps"`
	CacheHits      int64   `json:"client_cache_hits"`

	Latency   benchLatency    `json:"latency"`
	Mutations *benchMutations `json:"mutations,omitempty"`
	Recovery  *benchRecovery  `json:"recovery,omitempty"`
	Phases    []benchPhase    `json:"phase_attribution,omitempty"`
}

// benchReport is the whole JSON report file, accreted scenario by
// scenario so a shell script can compose a multi-scenario run from
// independent qgraph-bench invocations.
type benchReport struct {
	Bench     string                   `json:"bench"`
	Scenarios map[string]benchScenario `json:"scenarios"`
	// TracingOverheadPct compares the read_only and read_only_notrace
	// scenarios' mean latencies: the cost of leaving tracing on. Derived
	// automatically once both scenarios are present.
	TracingOverheadPct *float64 `json:"tracing_overhead_pct,omitempty"`
	// WatchdogOverheadPct compares read_only against read_only_nowatch
	// (a server deployed with -watchdog=false) the same way: the cost of
	// leaving the active health layer on.
	WatchdogOverheadPct *float64 `json:"watchdog_overhead_pct,omitempty"`
	// ReadScaleoutX compares the router_read and single_node_read
	// scenarios' goodput: the read-throughput multiple a router-fronted
	// replica fleet sustains over one node under the identical workload.
	ReadScaleoutX *float64 `json:"read_scaleout_x,omitempty"`
	// RouterTraceOverheadPct compares router_read_trace against
	// router_read_notrace: the per-request cost of the router opening a
	// route trace and propagating X-QGraph-Trace-ID downstream.
	RouterTraceOverheadPct *float64 `json:"router_trace_overhead_pct,omitempty"`
}

// writeBenchJSON merges one scenario into the report at path
// (read-modify-write, creating the file on first use). With keepBest, a
// scenario already present survives unless this run's mean latency is
// lower — repeat-and-take-best, the standard way to strip scheduler and
// GC noise from a cost comparison (each repetition only ever lowers the
// noise floor, never the intrinsic cost).
func writeBenchJSON(path, scenario string, sc benchScenario, keepBest bool) error {
	rep := benchReport{Bench: "qgraph-load", Scenarios: map[string]benchScenario{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("%s: existing report is not valid JSON: %w", path, err)
		}
		if rep.Scenarios == nil {
			rep.Scenarios = map[string]benchScenario{}
		}
	}
	if prev, ok := rep.Scenarios[scenario]; !keepBest || !ok ||
		prev.Latency.MeanMS <= 0 || sc.Latency.MeanMS < prev.Latency.MeanMS {
		rep.Scenarios[scenario] = sc
	}
	rep.TracingOverheadPct = nil
	rep.WatchdogOverheadPct = nil
	if full, ok := rep.Scenarios["read_only"]; ok {
		if bare, ok := rep.Scenarios["read_only_notrace"]; ok && bare.Latency.MeanMS > 0 {
			pct := 100 * (full.Latency.MeanMS - bare.Latency.MeanMS) / bare.Latency.MeanMS
			rep.TracingOverheadPct = &pct
		}
		if bare, ok := rep.Scenarios["read_only_nowatch"]; ok && bare.Latency.MeanMS > 0 {
			pct := 100 * (full.Latency.MeanMS - bare.Latency.MeanMS) / bare.Latency.MeanMS
			rep.WatchdogOverheadPct = &pct
		}
	}
	rep.ReadScaleoutX = nil
	if fleet, ok := rep.Scenarios["router_read"]; ok {
		if single, ok := rep.Scenarios["single_node_read"]; ok && single.GoodputQPS > 0 {
			x := fleet.GoodputQPS / single.GoodputQPS
			rep.ReadScaleoutX = &x
		}
	}
	rep.RouterTraceOverheadPct = nil
	if full, ok := rep.Scenarios["router_read_trace"]; ok {
		if bare, ok := rep.Scenarios["router_read_notrace"]; ok && bare.Latency.MeanMS > 0 {
			pct := 100 * (full.Latency.MeanMS - bare.Latency.MeanMS) / bare.Latency.MeanMS
			rep.RouterTraceOverheadPct = &pct
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// tracedView mirrors the serving layer's /traces response shape (the
// bench tool is a client; it decodes only what it renders).
type tracedView struct {
	Trace struct {
		TraceID    uint64  `json:"trace_id"`
		QueryID    int64   `json:"query_id"`
		DurationMS float64 `json:"duration_ms"`
	} `json:"trace"`
	Phases []benchPhase `json:"phases"`
}

// sampleTraces fetches the n slowest traces, prints their phase
// attribution, and returns the aggregate: per-phase share of the total
// traced wall time (duration-weighted, so slow traces dominate — they
// are what the sample is for).
func sampleTraces(client *http.Client, base string, n int) []benchPhase {
	resp, err := client.Get(fmt.Sprintf("%s/traces?slowest=%d", base, n))
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgraph-bench: trace sample: %v\n", err)
		return nil
	}
	defer resp.Body.Close()
	var views []tracedView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil || len(views) == 0 {
		fmt.Fprintf(os.Stderr, "qgraph-bench: trace sample: no traces (%v)\n", err)
		return nil
	}

	fmt.Printf("# trace sample: %d slowest traces\n", len(views))
	acc := map[string]float64{}
	var total float64
	for _, v := range views {
		fmt.Printf("trace %d (query %d): %.2fms", v.Trace.TraceID, v.Trace.QueryID, v.Trace.DurationMS)
		for _, p := range v.Phases {
			fmt.Printf("  %s=%.2fms(%.0f%%)", p.Name, p.DurationMS, 100*p.Fraction)
			acc[p.Name] += p.DurationMS
		}
		fmt.Println()
		total += v.Trace.DurationMS
	}
	if total <= 0 {
		return nil
	}
	agg := make([]benchPhase, 0, len(acc))
	for name, ms := range acc {
		agg = append(agg, benchPhase{Name: name, DurationMS: ms, Fraction: ms / total})
	}
	sort.Slice(agg, func(i, j int) bool { return agg[i].DurationMS > agg[j].DurationMS })
	fmt.Printf("phase attribution:")
	for _, p := range agg {
		fmt.Printf(" %s=%.0f%%", p.Name, 100*p.Fraction)
	}
	fmt.Println()
	return agg
}
