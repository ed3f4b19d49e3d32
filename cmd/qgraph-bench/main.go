// Command qgraph-bench regenerates the figures of the paper's evaluation
// (README "Reproduce the paper's figures", plus the ablations of
// internal/experiments) and prints the measured series.
//
//	qgraph-bench -list
//	qgraph-bench -exp fig6a
//	qgraph-bench -exp all -scale quick
//	qgraph-bench -exp fig7a -scale paper   # paper-sized run (hours)
//
// With -load it instead drives open-loop HTTP load against a qgraphd
// -serve endpoint, measuring throughput, admission rejections, and cache
// effectiveness under concurrency:
//
//	qgraph-bench -load http://localhost:8080 -rate 500 -load-duration 30s
//
// Adding -mutate-rate turns that into a mixed read/write run: graph
// mutations stream to POST /mutate while the query load runs, and the
// report shows mutation apply throughput and commit latency alongside
// query goodput:
//
//	qgraph-bench -load http://localhost:8080 -rate 500 -mutate-rate 200 \
//	  -mutations bw.qgr.mut -load-duration 30s
//
// A fault schedule can SIGKILL a worker process mid-run to measure the
// engine's failure recovery: the report shows the server-measured
// recovery time and the goodput dip (pre-kill vs post-recovery qps), and
// counts worker_lost responses — which recovery must keep at zero:
//
//	qgraph-bench -load http://localhost:8080 -rate 300 -load-duration 15s \
//	  -kill-pid $WORKER_PID -kill-worker 1 -kill-after 5s
//
// -trace-sample N prints the phase attribution of the N slowest traces
// after the run (where the milliseconds went: admission, supersteps,
// barrier phases, WAL fsync). -json-out FILE -scenario NAME merges the
// run into a machine-readable report; scripts/bench.sh composes the
// committed BENCH_*.json perf trajectory from several such runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"qgraph/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale   = flag.String("scale", "default", "scale preset: quick | default | paper")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		workers = flag.Int("workers", 0, "override worker count k")
		queries = flag.Int("queries", 0, "override main workload size")
		seed    = flag.Uint64("seed", 0, "override workload seed")

		load        = flag.String("load", "", "open-loop HTTP load mode: base URL of a qgraphd -serve endpoint")
		rate        = flag.Float64("rate", 200, "arrival rate in req/s (-load)")
		loadDur     = flag.Duration("load-duration", 10*time.Second, "how long to generate load (-load)")
		loadMix     = flag.String("load-mix", "sssp=0.6,bfs=0.3,pagerank=0.1", "query kind mix (-load)")
		loadPool    = flag.Int("load-pool", 256, "distinct query pool size; smaller = more cache hits (-load)")
		loadTenants = flag.Int("load-tenants", 4, "tenants to spread requests over (-load)")
		loadTimeout = flag.Duration("load-timeout", 10*time.Second, "client-side request timeout (-load)")

		mutateRate    = flag.Float64("mutate-rate", 0, "mixed read/write mode: stream graph mutations at this many ops/s during -load")
		mutateBatch   = flag.Int("mutate-batch", 32, "ops per POST /mutate request (-mutate-rate)")
		mutateWriters = flag.Int("mutate-writers", 1, "concurrent closed-loop mutation writers sharing -mutate-rate; >1 exercises WAL group-commit amortization (forced to 1 with -mutations)")
		mutateFile    = flag.String("mutations", "", "replay this update stream (qgraph-gen -mutations) instead of synthetic ops")

		killPID    = flag.Int("kill-pid", 0, "fault schedule: SIGKILL this worker process -kill-after into the -load run")
		killAfter  = flag.Duration("kill-after", 0, "when to fire the -kill-pid fault")
		killWorker = flag.Int("kill-worker", 0, "worker id of -kill-pid, for the fault report")

		traceSample = flag.Int("trace-sample", 0, "after -load, fetch the N slowest traces and print their phase attribution")
		jsonOut     = flag.String("json-out", "", "merge the -load run into this JSON report file (see BENCH_*.json)")
		scenario    = flag.String("scenario", "", "scenario name for -json-out (e.g. read_only, mixed, recovery)")
		jsonBest    = flag.Bool("json-best", false, "repeat-and-take-best: keep the existing -json-out scenario if its mean latency was lower")
	)
	flag.Parse()

	if *load != "" {
		s := *seed
		if s == 0 {
			s = 1
		}
		if err := runLoad(loadOptions{
			URL: *load, Rate: *rate, Duration: *loadDur, Mix: *loadMix,
			Pool: *loadPool, Tenants: *loadTenants, Timeout: *loadTimeout, Seed: s,
			MutateRate: *mutateRate, MutateBatch: *mutateBatch, MutateWriters: *mutateWriters,
			MutationsFile: *mutateFile,
			KillPID:       *killPID, KillAfter: *killAfter, KillWorker: *killWorker,
			TraceSample: *traceSample, JSONOut: *jsonOut, Scenario: *scenario, JSONBest: *jsonBest,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "qgraph-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: qgraph-bench -exp <id>|all [-scale quick|default|paper]")
		fmt.Fprintln(os.Stderr, "known experiments:", strings.Join(experiments.IDs(), " "))
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "default":
		sc = experiments.DefaultScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		r, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		tab, err := r(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(tab.String())
		fmt.Printf("# wall time: %s\n\n", time.Since(start).Round(time.Millisecond))
	}
}
