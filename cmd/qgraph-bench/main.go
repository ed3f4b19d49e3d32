// Command qgraph-bench regenerates the paper's figures that a claim stands
// behind, and four ablations (internal/experiments; README "Reproduce the
// paper's figures" lists them with their claims), and prints each series.
// They run over slept network latencies: shapes to compare with the
// paper, not measurements of this system.
//
//	qgraph-bench -list
//	qgraph-bench -exp fig6a
//	qgraph-bench -exp all -scale quick
//	qgraph-bench -exp fig7a -scale paper   # paper-sized run (hours)
//
// With -load it is instead the load-and-fault generator of
// scripts/smoke.sh: open-loop HTTP queries against a qgraphd -serve
// endpoint, optionally with a mutation stream to POST /mutate beside them
// and a SIGKILL of one worker process mid-run. It prints counts the smoke
// scenarios assert on (sent / ok / worker_lost, applied mutations,
// recovery episodes, log boundedness); it is not a measurement tool —
// performance numbers come from benchmark/ (see benchmark/README.md).
//
//	qgraph-bench -load http://localhost:8080 -rate 500 -load-duration 30s
//	qgraph-bench -load http://localhost:8080 -rate 500 -mutate-rate 200 \
//	  -mutations bw.qgr.mut -load-duration 30s
//	qgraph-bench -load http://localhost:8080 -rate 300 -load-duration 15s \
//	  -kill-pid $WORKER_PID -kill-worker 1 -kill-after 5s
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
		loadTimeout = flag.Duration("load-timeout", 10*time.Second, "client-side request timeout (-load)")

		mutateRate    = flag.Float64("mutate-rate", 0, "mixed read/write mode: stream graph mutations at this many ops/s during -load")
		mutateBatch   = flag.Int("mutate-batch", 32, "ops per POST /mutate request (-mutate-rate)")
		mutateWriters = flag.Int("mutate-writers", 1, "concurrent closed-loop mutation writers sharing -mutate-rate; >1 exercises WAL group-commit amortization (forced to 1 with -mutations)")
		mutateFile    = flag.String("mutations", "", "replay this update stream (qgraph-gen -mutations) instead of synthetic ops")

		killPID    = flag.Int("kill-pid", 0, "fault schedule: SIGKILL this worker process -kill-after into the -load run")
		killAfter  = flag.Duration("kill-after", 0, "when to fire the -kill-pid fault")
		killWorker = flag.Int("kill-worker", 0, "worker id of -kill-pid, for the fault report")
	)
	flag.Parse()

	if *load != "" {
		s := *seed
		if s == 0 {
			s = 1
		}
		if err := runLoad(loadOptions{
			URL: *load, Rate: *rate, Duration: *loadDur, Mix: *loadMix,
			Pool: *loadPool, Timeout: *loadTimeout, Seed: s,
			MutateRate: *mutateRate, MutateBatch: *mutateBatch, MutateWriters: *mutateWriters,
			MutationsFile: *mutateFile,
			KillPID:       *killPID, KillAfter: *killAfter, KillWorker: *killWorker,
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
