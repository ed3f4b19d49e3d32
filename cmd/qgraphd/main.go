// Command qgraphd runs one node of a distributed Q-Graph deployment over
// real TCP: either the controller (node 0) or a worker (node w+1). Every
// node loads the same QGR1 graph file and computes the same deterministic
// initial partitioning, so no partition data crosses the wire at startup.
//
// Example 9-node deployment (1 controller + 8 workers) on one host:
//
//	qgraph-gen -kind road -preset bw -scale 64 -out bw.qgr
//	for w in $(seq 0 7); do
//	  qgraphd -role worker -id $w -graph bw.qgr -addrs "$ADDRS" &
//	done
//	qgraphd -role controller -graph bw.qgr -addrs "$ADDRS"
//
// where ADDRS lists k+1 comma-separated host:port pairs, controller first.
// A graph is identified by its file's base name and shape, so the nodes may
// spell its path differently.
//
// With -serve the controller exposes the HTTP/JSON query API of
// internal/serve (POST /query, POST /mutate, GET /healthz, GET /stats)
// with admission control and a result cache, plus the observability
// surface: GET /metrics (Prometheus text), GET /trace/{query_id} and
// GET /traces?slowest=N (per-query span trees with phase attribution):
//
//	qgraphd -role controller -graph bw.qgr -addrs "$ADDRS" -serve :8080
//	curl -s localhost:8080/query -d '{"kind":"sssp","source":3,"target":99}'
//	curl -s localhost:8080/mutate -d '{"ops":[{"op":"add_edge","from":3,"to":99,"weight":1.5}]}'
//
// Without -serve, the controller falls back to accepting queries on stdin,
// one per line:
//
//	sssp <source> <target>
//	poi <source>
//	bfs <source> [target]
//	pagerank <source>
//
// and prints one result line per query.
//
// With -snapshot-dir the deployment checkpoints: the controller
// periodically (per the -snapshot-every-ops / -snapshot-every-bytes /
// -snapshot-interval policy, or on POST /admin/snapshot) folds the
// committed graph into a durable snapshot and truncates its mutation log;
// a worker restarted with -rejoin replays only the ops since the newest
// checkpoint, and a full deployment restart resumes from the checkpointed
// state. Every node must point at the same directory:
//
//	qgraphd -role controller ... -serve :8080 \
//	  -snapshot-dir /var/qgraph/snaps -snapshot-every-ops 100000
//	qgraphd -role worker -id 0 ... -snapshot-dir /var/qgraph/snaps
//
// Adding -wal-dir makes commits durable: every mutation batch is fsynced
// to a write-ahead log before its HTTP response, so even a kill -9 of the
// whole deployment loses nothing — a restart recovers to the newest
// checkpoint plus the WAL tail, the exact pre-crash version. All nodes
// must point at the same directory (like -snapshot-dir):
//
//	qgraphd -role controller ... -snapshot-dir /var/qgraph/snaps \
//	  -wal-dir /var/qgraph/wal
//	qgraphd -role worker -id 0 ... -snapshot-dir /var/qgraph/snaps \
//	  -wal-dir /var/qgraph/wal
//
// Every node logs structured records (log/slog) to stderr; -log-level
// and -log-json control verbosity and format, and worker logs carry the
// trace_id of the query they execute so one grep follows a request
// across processes. -pprof-addr exposes net/http/pprof on a separate
// listener. -trace=false disables per-query tracing (the /metrics
// endpoint stays).
//
// SIGINT/SIGTERM shut the controller down gracefully: the HTTP listener
// closes, in-flight queries drain, and the workers are stopped through the
// protocol instead of dying mid-superstep.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof-addr mux
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/core"
	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
	"qgraph/internal/obs"
	"qgraph/internal/obs/health"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/serve"
	"qgraph/internal/transport"
)

func main() {
	var (
		role       = flag.String("role", "", "controller | worker")
		id         = flag.Int("id", 0, "worker id (role=worker)")
		graphPath  = flag.String("graph", "", "QGR1 graph file (same on all nodes)")
		addrsFlag  = flag.String("addrs", "", "comma-separated host:port list, controller first")
		adapt      = flag.Bool("adapt", true, "enable adaptive Q-cut (controller)")
		serveAddr  = flag.String("serve", "", "HTTP serving address host:port (controller role; replaces the stdin REPL)")
		maxInfl    = flag.Int("max-inflight", 16, "admission: max queries executing concurrently (-serve)")
		maxQueue   = flag.Int("max-queue", 64, "admission: max queued queries before 429 (-serve)")
		cacheSize  = flag.Int("cache-size", 4096, "result cache capacity (-serve)")
		cacheTTL   = flag.Duration("cache-ttl", time.Minute, "result cache entry lifetime (-serve)")
		reqTimeout = flag.Duration("timeout", 30*time.Second, "default per-request deadline (-serve)")

		commitEvery = flag.Duration("commit-every", 250*time.Millisecond, "max time staged graph mutations wait before the batch is sealed (controller)")
		maxBatchOps = flag.Int("max-batch-ops", 4096, "commit the staged mutation batch early at this many ops (controller)")
		hbEvery     = flag.Duration("heartbeat-every", time.Second, "worker liveness probe interval; negative disables (controller)")
		hbTimeout   = flag.Duration("heartbeat-timeout", 5*time.Second, "silence after which a worker is declared dead (controller)")

		snapDir      = flag.String("snapshot-dir", "", "checkpoint directory: persist snapshots durably and restart from the newest one (all nodes must see the same directory)")
		snapKeep     = flag.Int("snapshot-keep", 2, "checkpoints retained in memory and on disk")
		snapOps      = flag.Int("snapshot-every-ops", 0, "cut a checkpoint every N committed mutation ops (controller; 0 disables)")
		snapBytes    = flag.Int64("snapshot-every-bytes", 0, "cut a checkpoint once the op log holds this many bytes (controller; 0 disables)")
		snapInterval = flag.Duration("snapshot-interval", 0, "cut a checkpoint once this long has passed since the last one, if an op committed since (controller; 0 disables)")
		walDir       = flag.String("wal-dir", "", "durable write-ahead op log directory: every committed mutation batch is fsynced before its ack, and a full restart recovers to the exact pre-crash version (all nodes must see the same directory)")
		rejoin       = flag.Bool("rejoin", false, "announce as a respawned worker: adopt state via the recovery protocol instead of assuming a fresh deployment (role=worker)")

		logLevel  = flag.String("log-level", "info", "structured log verbosity: debug | info | warn | error")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of logfmt text")
		pprofAddr = flag.String("pprof-addr", "", "expose net/http/pprof on this host:port (empty disables)")
		traceOn   = flag.Bool("trace", true, "per-query tracing for /trace and /traces (-serve); /metrics is unaffected")

		faultSlowCompute = flag.Duration("fault-slow-compute", 0, "TESTING: inflate every superstep's compute by sleeping this long (role=worker; exercises the straggler watchdog)")
	)
	flag.Parse()
	if *role != "controller" && *role != "worker" {
		fatal(fmt.Errorf("-role must be controller or worker"))
	}

	logger := obs.NewLogger(os.Stderr, *logLevel, *logJSON, *role)
	if *pprofAddr != "" {
		go func() {
			// The blank net/http/pprof import registered its handlers on
			// http.DefaultServeMux; a nil handler serves exactly that.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	if (*snapOps > 0 || *snapBytes > 0 || *snapInterval > 0) && *snapDir == "" {
		// Policy-driven truncation without a shared durable store would
		// leave rejoining workers unable to resolve the replay base.
		fatal(fmt.Errorf("snapshot policy flags require -snapshot-dir"))
	}
	addrs := strings.Split(*addrsFlag, ",")
	if *addrsFlag == "" || len(addrs) < 2 {
		fatal(fmt.Errorf("-addrs needs at least controller plus one worker"))
	}
	k := len(addrs) - 1
	if *graphPath == "" {
		fatal(fmt.Errorf("-graph is required"))
	}
	g, err := graph.LoadFile(*graphPath)
	if err != nil {
		fatal(err)
	}
	// Every node recovers its starting graph (newest checkpoint, then the
	// WAL tail) and the same deterministic partitioning inside core.
	gid := graphID(*graphPath, g)
	o := obs.New(logger)
	cfg := core.Config{
		Workers: k, Graph: g, Adapt: *adapt, Obs: o,
		CommitEvery: *commitEvery, MaxBatchOps: *maxBatchOps,
		HeartbeatEvery: *hbEvery, HeartbeatTimeout: *hbTimeout,
		SnapshotDir: *snapDir, SnapshotKeep: *snapKeep, SnapshotEveryOps: *snapOps,
		SnapshotEveryBytes: *snapBytes, SnapshotInterval: *snapInterval,
		WALDir: *walDir, WALGraphID: gid,
	}

	if *role == "worker" {
		if *id < 0 || *id >= k {
			fatal(fmt.Errorf("worker id %d out of range [0,%d)", *id, k))
		}
		if *faultSlowCompute > 0 {
			// Deterministic straggler injection: the compute-slow faultpoint
			// sits inside the measured superstep window, so the sleep shows
			// up in this worker's reported ComputeNS and the controller's
			// straggler watchdog sees a genuinely slow worker.
			d := *faultSlowCompute
			faultpoint.Arm(faultpoint.WorkerComputeSlow, func(...int) bool {
				time.Sleep(d)
				return false
			})
			logger.Warn("fault injection armed: slow compute", "sleep", d.String())
		}
		w := partition.WorkerID(*id)
		node, err := transport.NewTCPNode(protocol.WorkerNode(w), addrs)
		if err != nil {
			fatal(err)
		}
		defer node.Close()
		wk, err := core.StartWorker(cfg, w, *rejoin, node)
		if err != nil {
			fatal(err)
		}
		// Booted: a controller started from here on commits only versions
		// this worker has not replayed.
		fmt.Printf("qgraphd: worker %d of %d on %s\n", *id, k, node.Addr())
		if err := wk.Run(); err != nil {
			fatal(err)
		}
		return
	}

	node, err := transport.NewTCPNode(protocol.ControllerNode, addrs)
	if err != nil {
		fatal(err)
	}
	defer node.Close()
	// The health monitor is shared like Obs: the controller feeds
	// compute/stall/lifecycle signals, the serving layer exposes /events and
	// the /healthz degradation the detectors drive.
	mon := health.New(health.Config{}, o)
	cfg.Monitor = mon
	transport.SetOnCodecReject(func(remote string, peerVersion, localVersion uint8) {
		mon.Record(health.EventCodecReject, health.SevWarn, -1,
			fmt.Sprintf("rejected peer %s: codec version %d != local %d", remote, peerVersion, localVersion),
			map[string]any{"remote": remote, "peer_version": peerVersion, "local_version": localVersion})
	})
	eng, err := core.StartController(cfg, node)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qgraphd: controller for %d workers on %s\n", k, node.Addr())

	// Graceful shutdown: the first SIGINT/SIGTERM drains; a second signal
	// kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *serveAddr != "" {
		srv, err := serve.New(serve.Config{
			Backend: eng.Controller(), GraphID: gid, Obs: o, Monitor: mon, NoTrace: !*traceOn,
			Admit:     serve.AdmitConfig{MaxInFlight: *maxInfl, MaxQueue: *maxQueue},
			CacheSize: *cacheSize, CacheTTL: *cacheTTL, DefaultTimeout: *reqTimeout,
			NodeID: *serveAddr, Role: "primary",
		})
		if err != nil {
			fatal(err)
		}
		httpSrv := &http.Server{Addr: *serveAddr, Handler: srv.Handler()}
		httpErr := make(chan error, 1)
		go func() { httpErr <- httpSrv.ListenAndServe() }()
		fmt.Printf("qgraphd: serving queries on http://%s (POST /query)\n", *serveAddr)
		select {
		case <-ctx.Done():
			fmt.Println("qgraphd: signal received, draining")
		case err := <-httpErr:
			if !errors.Is(err, http.ErrServerClosed) {
				fatal(err)
			}
		case <-eng.Done():
			// The engine died; serving 503s behind a green /healthz
			// helps nobody — close the listener and exit loudly.
			_ = httpSrv.Close()
			err := eng.Close()
			if err == nil {
				err = fmt.Errorf("controller stopped unexpectedly")
			}
			fatal(fmt.Errorf("controller failed: %w", err))
		}
		// Restore default signal disposition so a second signal kills
		// the process instead of being swallowed during the drain.
		stopSignals()
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		_ = httpSrv.Shutdown(shutCtx)
		if err := srv.Drain(shutCtx); err != nil {
			fmt.Println("qgraphd: drain timed out, stopping anyway")
		}
		cancel()
		snap := srv.Counters().Snapshot(time.Now())
		fmt.Printf("served: %d completed, %d rejected, %d expired, hit ratio %.2f, %.1f qps\n",
			snap.Completed, snap.Rejected, snap.Expired, snap.HitRatio, snap.QPS)
	} else {
		serveStdin(ctx, eng.Controller())
		stopSignals()
	}
	sum := eng.Recorder().Summarize()
	fmt.Printf("done: %d queries, total %.3fs, mean %.2fms, locality %.2f\n",
		sum.Count, sum.TotalLatency.Seconds(),
		float64(sum.MeanLatency.Microseconds())/1000, sum.MeanLocality)
	if err := eng.Close(); err != nil {
		fatal(err)
	}
}

// graphID is the base graph's identity (/stats graph_id, the WAL's owner
// check): the graph file's base name and the shape of the graph in it.
// Every node computes the same id however its -graph path is spelled, and
// a restart keeps it whatever the WAL has added since.
func graphID(path string, g *graph.Graph) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(filepath.Base(path)))
	fmt.Fprintf(h, "|%d|%d", g.NumVertices(), g.NumEdges())
	return h.Sum64()
}

func serveStdin(ctx context.Context, ctrl *controller.Controller) {
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	nextID := query.ID(1)
	for {
		var line string
		var ok bool
		select {
		case line, ok = <-lines:
			if !ok {
				return
			}
		case <-ctx.Done():
			fmt.Println("qgraphd: signal received, closing REPL")
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		spec, err := parseQuery(fields, nextID)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		nextID++
		ch, err := ctrl.Schedule(spec)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		select {
		case res := <-ch:
			fmt.Printf("%s result=%g latency=%s steps=%d touched=%d workers=%d\n",
				fields[0], res.Value, res.Latency.Round(time.Microsecond),
				res.Supersteps, res.Touched, res.Workers)
		case <-ctx.Done():
			ctrl.Cancel(spec.ID)
			fmt.Println("qgraphd: signal received, cancelling query")
			return
		}
	}
}

func parseQuery(fields []string, id query.ID) (query.Spec, error) {
	atoi := func(s string) (graph.VertexID, error) {
		v, err := strconv.ParseInt(s, 10, 32)
		return graph.VertexID(v), err
	}
	spec := query.Spec{ID: id, Target: graph.NilVertex}
	var err error
	switch fields[0] {
	case "sssp":
		if len(fields) != 3 {
			return spec, fmt.Errorf("usage: sssp <src> <dst>")
		}
		spec.Kind = query.KindSSSP
		if spec.Source, err = atoi(fields[1]); err != nil {
			return spec, err
		}
		spec.Target, err = atoi(fields[2])
	case "poi":
		if len(fields) != 2 {
			return spec, fmt.Errorf("usage: poi <src>")
		}
		spec.Kind = query.KindPOI
		spec.Source, err = atoi(fields[1])
	case "bfs":
		if len(fields) < 2 || len(fields) > 3 {
			return spec, fmt.Errorf("usage: bfs <src> [dst]")
		}
		spec.Kind = query.KindBFS
		if spec.Source, err = atoi(fields[1]); err != nil {
			return spec, err
		}
		if len(fields) == 3 {
			spec.Target, err = atoi(fields[2])
		}
	case "pagerank":
		if len(fields) != 2 {
			return spec, fmt.Errorf("usage: pagerank <src>")
		}
		spec.Kind = query.KindPageRank
		spec.MaxIters = 20
		spec.Epsilon = 1e-4
		spec.Source, err = atoi(fields[1])
	default:
		return spec, fmt.Errorf("unknown query kind %q", fields[0])
	}
	return spec, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qgraphd:", err)
	os.Exit(1)
}
