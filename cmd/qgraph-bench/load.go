package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/metrics"
	"qgraph/internal/serve"
)

// Open-loop HTTP load mode: fire requests at a qgraphd -serve endpoint at
// a fixed arrival rate regardless of completions (the serving-systems way
// to measure throughput and admission behavior under concurrency), then
// print client-side latency aggregates and the server's /stats.

type loadOptions struct {
	URL      string
	Rate     float64 // arrivals per second
	Duration time.Duration
	Mix      string // e.g. "sssp=0.6,bfs=0.3,pagerank=0.1"
	Pool     int    // distinct queries drawn from (smaller = more cache hits)
	Timeout  time.Duration
	Seed     uint64

	// Mixed read/write mode: stream MutateRate ops/s to POST /mutate in
	// MutateBatch-sized requests while the query load runs, replaying
	// MutationsFile if set (synthetic ops otherwise). MutateWriters splits
	// the rate over that many concurrent closed-loop writers — overlapping
	// commits are what the WAL's group committer amortizes into shared
	// fsyncs (forced to 1 for a replay, which must stay ordered).
	MutateRate    float64
	MutateBatch   int
	MutateWriters int
	MutationsFile string

	// Fault schedule: KillAfter into the run, SIGKILL the worker process
	// KillPID (KillWorker is its id, for the report). The report then
	// shows detection+recovery time from the server's /stats and the
	// goodput dip: pre-kill vs post-recovery throughput.
	KillPID    int
	KillAfter  time.Duration
	KillWorker int
}

// parseMix parses "kind=weight,..." into a cumulative distribution.
func parseMix(s string) (kinds []string, cum []float64, err error) {
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w < 0 {
			return nil, nil, fmt.Errorf("bad mix weight %q", kv[1])
		}
		switch kv[0] {
		case "sssp", "bfs", "poi", "pagerank":
		default:
			return nil, nil, fmt.Errorf("unknown mix kind %q", kv[0])
		}
		total += w
		kinds = append(kinds, kv[0])
		cum = append(cum, total)
	}
	if total <= 0 {
		return nil, nil, fmt.Errorf("mix weights sum to zero")
	}
	return kinds, cum, nil
}

// runLoad drives the open-loop generator and prints the measurement.
func runLoad(o loadOptions) error {
	if o.Rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %g", o.Rate)
	}
	base := strings.TrimRight(o.URL, "/")
	kinds, cum, err := parseMix(o.Mix)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: o.Timeout}
	vertices, err := fetchVertices(client, base)
	if err != nil {
		return fmt.Errorf("probing %s/stats: %w", base, err)
	}
	if o.Pool < 1 {
		o.Pool = 256
	}

	// A fixed pool of distinct queries: repeats are what exercise the
	// result cache, and the pool size sets the repeat probability.
	rng := rand.New(rand.NewPCG(o.Seed, 0x9e3779b97f4a7c15))
	pool := make([]serve.QueryRequest, o.Pool)
	for i := range pool {
		k := kinds[len(kinds)-1]
		x := rng.Float64() * cum[len(cum)-1]
		for j, c := range cum {
			if x <= c {
				k = kinds[j]
				break
			}
		}
		sp := serve.QueryRequest{Kind: k, Source: rng.Int64N(int64(vertices))}
		switch k {
		case "sssp", "bfs":
			t := rng.Int64N(int64(vertices))
			sp.Target = &t
		case "pagerank":
			sp.MaxIters, sp.Epsilon = 20, 1e-4
		}
		pool[i] = sp
	}

	var (
		sent, ok, rejected, expired, failed atomic.Int64
		clientTimeout                       atomic.Int64
		cacheHits                           atomic.Int64
		workerLost                          atomic.Int64
		mu                                  sync.Mutex
		records                             []metrics.QueryRecord
		okTimes                             []time.Time
		wg                                  sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / o.Rate)
	if interval <= 0 {
		interval = time.Millisecond
	}

	// Mixed read/write mode: closed-loop mutation streamers run beside
	// the open-loop query generator for the same window, each owning a
	// share of the op rate.
	var muts []*mutationStreamer
	stopMut := make(chan struct{})
	mutDone := make(chan struct{})
	if o.MutateRate > 0 {
		writers := max(o.MutateWriters, 1)
		if o.MutationsFile != "" {
			writers = 1 // a replay stream must keep its order
		}
		for i := 0; i < writers; i++ {
			m, err := newMutationStreamer(o, client, base, vertices, i, writers)
			if err != nil {
				return err
			}
			muts = append(muts, m)
		}
		var mwg sync.WaitGroup
		for _, m := range muts {
			mwg.Add(1)
			go func(m *mutationStreamer) {
				defer mwg.Done()
				m.run(stopMut)
			}(m)
		}
		go func() {
			defer close(mutDone)
			mwg.Wait()
		}()
	} else {
		close(mutDone)
	}

	// Fault schedule: kill the target worker process mid-load.
	var killAt atomic.Int64 // unix nanos, 0 = not fired
	if o.KillPID > 0 && o.KillAfter > 0 {
		go func() {
			time.Sleep(o.KillAfter)
			proc, err := os.FindProcess(o.KillPID)
			if err == nil {
				err = proc.Kill()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "qgraph-bench: kill pid %d: %v\n", o.KillPID, err)
				return
			}
			killAt.Store(time.Now().UnixNano())
		}()
	}

	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	// Per-goroutine randomness must not share rng; pre-draw choices.
	for now := start; now.Sub(start) < o.Duration; now = <-ticker.C {
		sp := pool[rng.IntN(len(pool))]
		sent.Add(1)
		wg.Add(1)
		go func(sp serve.QueryRequest) {
			defer wg.Done()
			body, _ := json.Marshal(sp)
			t0 := time.Now()
			resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				// A client-side timeout is our own -load-timeout expiring
				// (often below the server's deadline), not a server error.
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					clientTimeout.Add(1)
				} else {
					failed.Add(1)
				}
				return
			}
			defer resp.Body.Close()
			var qr struct {
				CacheHit bool   `json:"cache_hit"`
				Error    string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&qr)
			if strings.Contains(qr.Error, "worker_lost") {
				// The acceptance bar for recovery: clients must never see a
				// worker failure as worker_lost.
				workerLost.Add(1)
			}
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
				if qr.CacheHit {
					cacheHits.Add(1)
				}
				done := time.Now()
				mu.Lock()
				records = append(records, metrics.QueryRecord{
					Kind: sp.Kind, ScheduledAt: t0, Latency: done.Sub(t0),
				})
				okTimes = append(okTimes, done)
				mu.Unlock()
			case http.StatusTooManyRequests:
				rejected.Add(1)
			case http.StatusGatewayTimeout:
				expired.Add(1)
			default:
				failed.Add(1)
			}
		}(sp)
	}
	genWindow := time.Since(start) // arrival window, before the drain
	close(stopMut)
	wg.Wait()
	<-mutDone
	wall := time.Since(start)

	sum := metrics.SummarizeRecords(records)
	fmt.Printf("# open-loop load: %s for %s at %.0f req/s (pool %d)\n",
		base, o.Duration, o.Rate, o.Pool)
	fmt.Printf("sent=%d ok=%d rejected_429=%d expired_504=%d client_timeout=%d failed=%d worker_lost=%d\n",
		sent.Load(), ok.Load(), rejected.Load(), expired.Load(), clientTimeout.Load(), failed.Load(),
		workerLost.Load())
	// Report the achieved arrival rate over the generation window (not
	// the post-generation drain): time.Ticker drops ticks when the
	// generator lags, so the offered load can fall short of -rate.
	fmt.Printf("offered=%.1f req/s goodput=%.1f qps client_cache_hits=%d\n",
		float64(sent.Load())/genWindow.Seconds(), float64(ok.Load())/wall.Seconds(), cacheHits.Load())
	if sum.Count > 0 {
		fmt.Printf("latency mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms\n",
			msOf(sum.MeanLatency), msOf(sum.P50), msOf(sum.P95), msOf(sum.P99))
	}
	if len(muts) > 0 {
		mut := sumStreamers(muts)
		mut.report(genWindow, len(muts))
		reportLogBound(client, base, mut.applied)
		reportDurability(client, base)
	}
	if at := killAt.Load(); at > 0 {
		reportFault(client, base, o, time.Unix(0, at), start, okTimes)
	}
	if stats, err := fetchRaw(client, base+"/stats"); err == nil {
		fmt.Printf("# server /stats\n%s\n", stats)
	}
	return nil
}

// reportLogBound prints the bounded-memory assertion of a mixed run: the
// committed-op log the server retains after the run versus the ops the run
// applied. With checkpointing armed the log must stay bounded by the
// snapshot policy, not grow with the applied total; without snapshots the
// line documents the unbounded growth instead of hiding it.
func reportLogBound(client *http.Client, base string, applied int64) {
	var st struct {
		Snapshot struct {
			Snapshots           int64  `json:"snapshot_count"`
			LastSnapshotVersion uint64 `json:"last_snapshot_version"`
			TruncatedOps        int64  `json:"truncated_ops_total"`
			DeltaLogLen         int    `json:"delta_log_len"`
			DeltaLogOps         int    `json:"delta_log_ops"`
			DeltaLogBytes       int64  `json:"delta_log_bytes"`
		} `json:"snapshot"`
	}
	raw, err := fetchRaw(client, base+"/stats")
	if err != nil || json.Unmarshal([]byte(raw), &st) != nil {
		return
	}
	s := st.Snapshot
	fmt.Printf("snapshots: count=%d last_version=%d truncated_ops=%d log_len=%d log_ops=%d log_bytes=%d\n",
		s.Snapshots, s.LastSnapshotVersion, s.TruncatedOps, s.DeltaLogLen, s.DeltaLogOps, s.DeltaLogBytes)
	bounded := s.TruncatedOps > 0 && int64(s.DeltaLogOps) < applied
	fmt.Printf("delta-log: bounded=%v retained_ops=%d applied_ops=%d\n", bounded, s.DeltaLogOps, applied)
}

// reportDurability prints the write-plane durability report: the WAL's
// version chain, fsync cost per commit, the group-commit amortization,
// and the background checkpoint cutter's wall time. With a WAL armed, the
// commit latency above already *includes* the fsync (it happens before
// the ack) while last_cut_ms is paid entirely off the barrier — so commit
// p95 staying flat while last_cut_ms grows with the graph is the
// off-barrier evidence; fsyncs/batch < 1 is the shared-sync evidence under
// concurrent writers.
func reportDurability(client *http.Client, base string) {
	var st struct {
		WAL struct {
			Enabled             bool    `json:"enabled"`
			BaseVersion         uint64  `json:"base_version"`
			HeadVersion         uint64  `json:"head_version"`
			Segments            int     `json:"segments"`
			Appends             int64   `json:"appends"`
			AppendedBytes       int64   `json:"appended_bytes"`
			LastFsyncUS         int64   `json:"last_fsync_us"`
			MeanFsyncUS         int64   `json:"mean_fsync_us"`
			Fsyncs              int64   `json:"fsyncs"`
			GroupedAppends      int64   `json:"grouped_appends"`
			MeanBatchesPerFsync float64 `json:"mean_batches_per_fsync"`
			LastGroupSize       int64   `json:"last_group_size"`
		} `json:"wal"`
		MVCC struct {
			Live           int    `json:"live_versions"`
			Pinned         int    `json:"pinned_readers"`
			Retired        uint64 `json:"retired_versions"`
			Peak           int    `json:"peak_live_versions"`
			SealedInFlight int64  `json:"sealed_in_flight"`
			MaxWorkerLag   uint64 `json:"max_worker_lag"`
		} `json:"mvcc"`
		Snapshot struct {
			LastCutMS float64 `json:"last_cut_ms"`
		} `json:"snapshot"`
	}
	raw, err := fetchRaw(client, base+"/stats")
	if err != nil || json.Unmarshal([]byte(raw), &st) != nil {
		return
	}
	fmt.Printf("mvcc: live_versions=%d pinned_readers=%d retired=%d peak_live=%d sealed_in_flight=%d max_worker_lag=%d\n",
		st.MVCC.Live, st.MVCC.Pinned, st.MVCC.Retired,
		st.MVCC.Peak, st.MVCC.SealedInFlight, st.MVCC.MaxWorkerLag)
	w := st.WAL
	if !w.Enabled {
		fmt.Printf("durability: wal=off (a full restart loses ops committed after the last checkpoint)\n")
		return
	}
	fmt.Printf("durability: wal=on head_version=%d base_version=%d segments=%d appends=%d bytes=%d fsync_mean_us=%d fsync_last_us=%d\n",
		w.HeadVersion, w.BaseVersion, w.Segments, w.Appends, w.AppendedBytes, w.MeanFsyncUS, w.LastFsyncUS)
	if w.Appends > 0 {
		fmt.Printf("group-commit: fsyncs=%d appends=%d fsyncs_per_batch=%.2f mean_batches_per_fsync=%.2f grouped_appends=%d last_group=%d\n",
			w.Fsyncs, w.Appends, float64(w.Fsyncs)/float64(w.Appends), w.MeanBatchesPerFsync, w.GroupedAppends, w.LastGroupSize)
	}
	if st.Snapshot.LastCutMS > 0 {
		fmt.Printf("durability: last_cut_ms=%.1f (background cutter; commit latency excludes cut work)\n",
			st.Snapshot.LastCutMS)
	}
}

// reportFault prints the worker-kill fault schedule's outcome: the
// server-measured recovery time and the goodput dip — completed-request
// throughput in the pre-kill window vs the tail window after recovery.
func reportFault(client *http.Client, base string, o loadOptions, killed, start time.Time, okTimes []time.Time) {
	fmt.Printf("# fault schedule: killed worker %d (pid %d) %.1fs into the run\n",
		o.KillWorker, o.KillPID, killed.Sub(start).Seconds())

	var st struct {
		Recovery struct {
			Recoveries       int64   `json:"recoveries"`
			Handoffs         int64   `json:"handoffs"`
			Rejoins          int64   `json:"rejoins"`
			QueriesRestarted int64   `json:"queries_restarted"`
			LastRecoveryMS   float64 `json:"last_recovery_ms"`
		} `json:"recovery"`
	}
	if raw, err := fetchRaw(client, base+"/stats"); err == nil {
		_ = json.Unmarshal([]byte(raw), &st)
	}
	fmt.Printf("recovery: episodes=%d handoffs=%d rejoins=%d queries_restarted=%d recovery_time_ms=%.1f\n",
		st.Recovery.Recoveries, st.Recovery.Handoffs, st.Recovery.Rejoins,
		st.Recovery.QueriesRestarted, st.Recovery.LastRecoveryMS)

	end := start.Add(o.Duration)
	// Pre-kill window: skip the first second of warmup.
	preFrom := start.Add(time.Second)
	if !preFrom.Before(killed) {
		preFrom = start
	}
	// Post-recovery window. LastRecoveryMS measures the episode from
	// death *declaration*; the detection window (the server's heartbeat
	// timeout, unknown here) precedes it. Additionally skip the first
	// third of the post-kill period, which absorbs detection for any
	// timeout under a third of the remaining run — otherwise outage time
	// would be averaged into post_recovery qps and understate the ratio.
	recovered := killed.Add(time.Duration(st.Recovery.LastRecoveryMS * float64(time.Millisecond)))
	if tail := killed.Add(end.Sub(killed) / 3); tail.After(recovered) {
		recovered = tail
	}
	if st.Recovery.Recoveries == 0 || !recovered.Before(end) {
		recovered = end.Add(-end.Sub(killed) / 5)
	}
	pre := windowRate(okTimes, preFrom, killed)
	post := windowRate(okTimes, recovered, end)
	fmt.Printf("goodput: pre_kill=%.1f qps post_recovery=%.1f qps", pre, post)
	if pre > 0 {
		fmt.Printf(" ratio=%.2f", post/pre)
	}
	fmt.Println()
}

// windowRate counts completions inside [from, to) per second.
func windowRate(times []time.Time, from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	n := 0
	for _, t := range times {
		if !t.Before(from) && t.Before(to) {
			n++
		}
	}
	return float64(n) / to.Sub(from).Seconds()
}

// ---------------------------------------------------------------------------
// Mutation streaming (mixed read/write mode)

// mutationStreamer pushes update batches to POST /mutate at a fixed op
// rate, closed-loop per batch: send, await the commit, sleep out the
// interval. Ops come from a replay file (qgraph-gen -mutations) or from a
// synthetic generator that adds edges and churns the weights of edges it
// added earlier (so set_weight ops actually apply). With -mutate-writers
// several streamers run concurrently, each owning 1/n of the rate — their
// overlapping commits are what the WAL group committer folds into shared
// fsyncs.
type mutationStreamer struct {
	client  *http.Client
	base    string
	batch   int
	rate    float64          // this writer's share
	replay  []serve.MutateOp // nil = synthetic
	rng     *rand.Rand
	nVerts  int64
	added   [][2]int64 // synthetic: edges added so far, for weight churn
	nextIdx int

	sent, applied, noops, failed, batches int64
	commits                               []metrics.QueryRecord
}

func newMutationStreamer(o loadOptions, client *http.Client, base string, vertices, idx, writers int) (*mutationStreamer, error) {
	m := &mutationStreamer{
		client: client,
		base:   base,
		batch:  max(o.MutateBatch, 1),
		rate:   o.MutateRate / float64(writers),
		rng:    rand.New(rand.NewPCG(o.Seed+uint64(idx), 0xa0761d6478bd642f)),
		nVerts: int64(vertices),
	}
	if o.MutationsFile != "" {
		f, err := os.Open(o.MutationsFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ops, err := delta.ReadOps(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.MutationsFile, err)
		}
		m.replay = make([]serve.MutateOp, len(ops))
		for i, op := range ops {
			m.replay[i] = serve.MutateOp{
				Op: op.Kind.String(), From: int64(op.From), To: int64(op.To),
				Weight: float64(op.Weight),
			}
		}
	}
	return m, nil
}

// nextBatch draws the next batch, or nil when a replay stream ran dry.
func (m *mutationStreamer) nextBatch() []serve.MutateOp {
	if m.replay != nil {
		if m.nextIdx >= len(m.replay) {
			return nil
		}
		end := min(m.nextIdx+m.batch, len(m.replay))
		ops := m.replay[m.nextIdx:end]
		m.nextIdx = end
		return ops
	}
	ops := make([]serve.MutateOp, m.batch)
	for i := range ops {
		if len(m.added) > 0 && m.rng.Float64() < 0.3 {
			pair := m.added[m.rng.IntN(len(m.added))]
			ops[i] = serve.MutateOp{
				Op: "set_weight", From: pair[0], To: pair[1],
				Weight: 0.1 + m.rng.Float64()*2,
			}
			continue
		}
		u, v := m.rng.Int64N(m.nVerts), m.rng.Int64N(m.nVerts)
		ops[i] = serve.MutateOp{Op: "add_edge", From: u, To: v, Weight: 0.1 + m.rng.Float64()*2}
		m.added = append(m.added, [2]int64{u, v})
	}
	return ops
}

func (m *mutationStreamer) run(stop <-chan struct{}) {
	interval := time.Duration(float64(m.batch) / m.rate * float64(time.Second))
	for {
		select {
		case <-stop:
			return
		default:
		}
		ops := m.nextBatch()
		if ops == nil {
			return // replay exhausted
		}
		t0 := time.Now()
		m.post(ops)
		if d := interval - time.Since(t0); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		}
	}
}

func (m *mutationStreamer) post(ops []serve.MutateOp) {
	m.sent += int64(len(ops))
	body, _ := json.Marshal(serve.MutateRequest{Ops: ops})
	t0 := time.Now()
	resp, err := m.client.Post(m.base+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		m.failed += int64(len(ops))
		return
	}
	defer resp.Body.Close()
	var mr serve.MutateResponse
	if resp.StatusCode != http.StatusOK {
		m.failed += int64(len(ops))
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		m.failed += int64(len(ops))
		return
	}
	m.applied += int64(mr.Applied)
	m.noops += int64(mr.NoOps)
	m.batches++
	m.commits = append(m.commits, metrics.QueryRecord{
		Kind: "mutate", ScheduledAt: t0, Latency: time.Since(t0),
	})
}

// mutationTotals aggregates the writers' counters for the report.
type mutationTotals struct {
	sent, applied, noops, failed, batches int64
	commits                               []metrics.QueryRecord
}

func sumStreamers(muts []*mutationStreamer) *mutationTotals {
	t := &mutationTotals{}
	for _, m := range muts {
		t.sent += m.sent
		t.applied += m.applied
		t.noops += m.noops
		t.failed += m.failed
		t.batches += m.batches
		t.commits = append(t.commits, m.commits...)
	}
	return t
}

// report prints the write-plane side of the mixed run.
func (t *mutationTotals) report(window time.Duration, writers int) {
	fmt.Printf("mutations: writers=%d sent=%d applied=%d noop=%d failed=%d batches=%d\n",
		writers, t.sent, t.applied, t.noops, t.failed, t.batches)
	sec := window.Seconds()
	if sec > 0 {
		fmt.Printf("mutations: offered=%.1f ops/s apply_throughput=%.1f ops/s\n",
			float64(t.sent)/sec, float64(t.applied)/sec)
	}
	if sum := metrics.SummarizeRecords(t.commits); sum.Count > 0 {
		fmt.Printf("mutations: commit mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms\n",
			msOf(sum.MeanLatency), msOf(sum.P50), msOf(sum.P95), msOf(sum.P99))
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fetchVertices learns the graph size from the server so the generator
// needs no local copy of the graph.
func fetchVertices(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Engine struct {
			Vertices int `json:"vertices"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	if st.Engine.Vertices <= 0 {
		return 0, fmt.Errorf("server reported %d vertices", st.Engine.Vertices)
	}
	return st.Engine.Vertices, nil
}

func fetchRaw(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	return strings.TrimSpace(buf.String()), nil
}
