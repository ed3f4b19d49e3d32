// Command qgraph-bench is the load-and-fault generator of
// scripts/smoke.sh: open-loop HTTP queries against a qgraphd -serve
// endpoint, optionally with a mutation stream to POST /mutate beside them
// and a SIGKILL of one worker process mid-run. It prints counts the smoke
// scenarios assert on (sent / ok / worker_lost, applied mutations,
// recovery episodes, log boundedness); it is not a measurement tool —
// performance numbers come from benchmark/ (see benchmark/README.md), and
// the paper's figures are tests in internal/controller (README "Reproduce
// the paper's figures").
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
	"time"
)

func main() {
	var (
		load        = flag.String("load", "", "base URL of a qgraphd -serve endpoint to load")
		seed        = flag.Uint64("seed", 1, "query and mutation seed")
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

	if *load == "" {
		fmt.Fprintln(os.Stderr, "usage: qgraph-bench -load <url> [-rate r] [-load-duration d] ...")
		os.Exit(2)
	}
	if err := runLoad(loadOptions{
		URL: *load, Rate: *rate, Duration: *loadDur, Mix: *loadMix,
		Pool: *loadPool, Timeout: *loadTimeout, Seed: *seed,
		MutateRate: *mutateRate, MutateBatch: *mutateBatch, MutateWriters: *mutateWriters,
		MutationsFile: *mutateFile,
		KillPID:       *killPID, KillAfter: *killAfter, KillWorker: *killWorker,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "qgraph-bench:", err)
		os.Exit(1)
	}
}
