//go:build smoke

// The smoke test deploys qgraphd as real OS processes, a controller and k
// workers over loopback TCP, and drives each deployment through its HTTP
// API and signals: queries and mutations at once (scenario 1), a worker
// SIGKILLed under load (2), a checkpoint, a rejoin and a restart from disk
// (3), the whole deployment SIGKILLed with a WAL (4), a slow worker the
// straggler watchdog must name (5), and the MVCC commit pipeline under hot
// commits and a SIGKILL (8; numbers 6 and 7 drove roles the tree no longer
// has). Every process stopped by SIGINT, or by the protocol's Shutdown,
// must exit 0, and no process may report a data race.
//
//	go test -tags smoke -count=1 ./cmd/qgraphd
//	go test -race -tags smoke -count=1 -timeout 10m ./cmd/qgraphd
//
// The binaries are built with -race exactly when the test binary is. The
// test asserts behaviour, not speed: numbers come from benchmark/.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/obs/health"
	"qgraph/internal/serve"
	"qgraph/internal/snapshot"
)

var (
	// dir holds the binaries, the BW graph g.qgr and its update stream
	// g.qgr.mut; stream is that stream's ops, as POST /mutate takes them.
	dir    string
	stream []serve.MutateOp
	race   bool // the test binary, and so every qgraphd, is race-built
)

func TestMain(m *testing.M) {
	code, err := 1, setup()
	if err == nil {
		code = m.Run()
	} else {
		fmt.Fprintln(os.Stderr, "smoke setup:", err)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// setup builds qgraphd and qgraph-gen, with -race exactly when this test
// binary has it, and generates the graph and its update stream.
func setup() error {
	var err error
	if dir, err = os.MkdirTemp("", "qgraph-smoke"); err != nil {
		return err
	}
	args := []string{"build", "-o", dir}
	bi, _ := debug.ReadBuildInfo()
	if race = bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}); race {
		args = append(args, "-race")
	}
	graph := filepath.Join(dir, "g.qgr")
	for _, c := range []*exec.Cmd{
		exec.Command("go", append(args, "qgraph/cmd/qgraphd", "qgraph/cmd/qgraph-gen")...),
		exec.Command(filepath.Join(dir, "qgraph-gen"), "-kind", "road", "-preset", "bw", "-scale", "256",
			"-out", graph, "-mutations", "5000"),
	} {
		if out, err := c.CombinedOutput(); err != nil {
			return fmt.Errorf("%s: %v\n%s", c, err, out)
		}
	}
	f, err := os.Open(graph + ".mut")
	if err != nil {
		return err
	}
	defer f.Close()
	ops, err := delta.ReadOps(f)
	for _, op := range ops {
		stream = append(stream, serve.MutateOp{
			Op: op.Kind.String(), From: int64(op.From), To: int64(op.To), Weight: float64(op.Weight),
		})
	}
	return err
}

// proc is one qgraphd process; its stdout and stderr go to one file.
type proc struct {
	name   string
	cmd    *exec.Cmd
	path   string
	done   chan struct{}
	err    error // Wait's result, set before done closes
	reaped bool  // killed, or its exit already checked
}

func (p *proc) log() string {
	b, _ := os.ReadFile(p.path)
	return string(b)
}

// kill SIGKILLs p and waits for it to be gone.
func (p *proc) kill() {
	p.reaped = true
	_ = p.cmd.Process.Kill() // fails only if p already exited
	<-p.done
}

// waitLog waits up to d for p's output to contain s.
func (p *proc) waitLog(s string, d time.Duration) bool {
	for end := time.Now().Add(d); !strings.Contains(p.log(), s); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// deployment is one controller and its workers on loopback ports the OS
// chose. Restarted nodes keep their ports, as a restarted deployment does.
type deployment struct {
	t      *testing.T
	addrs  string   // -addrs, controller first
	serve  string   // the controller's -serve address
	url    string   // http:// + serve
	common []string // flags every node gets (-snapshot-dir, -wal-dir)
	logs   string   // the directory of the processes' output files
	procs  []*proc  // every process started, for the exit and race checks
}

func deploy(t *testing.T, workers int, common ...string) *deployment {
	var addrs []string
	for range workers + 2 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close() // held until every port is drawn, so all differ
		addrs = append(addrs, l.Addr().String())
	}
	d := &deployment{t: t, addrs: strings.Join(addrs[:workers+1], ","), serve: addrs[workers+1],
		url: "http://" + addrs[workers+1], common: common, logs: t.TempDir()}
	t.Cleanup(d.cleanup) // before the removal of logs, which was registered first
	return d
}

func (d *deployment) start(name string, args ...string) *proc {
	d.t.Helper()
	args = append(append([]string{"-graph", filepath.Join(dir, "g.qgr"), "-addrs", d.addrs}, d.common...), args...)
	p := &proc{name: name, cmd: exec.Command(filepath.Join(dir, "qgraphd"), args...), done: make(chan struct{}),
		path: filepath.Join(d.logs, fmt.Sprintf("%d.log", len(d.procs)))}
	f, err := os.Create(p.path)
	if err != nil {
		d.t.Fatal(err)
	}
	defer f.Close()
	p.cmd.Stdout, p.cmd.Stderr = f, f
	if err := p.cmd.Start(); err != nil {
		d.t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	d.procs = append(d.procs, p)
	return p
}

// worker starts worker id and waits until it listens.
func (d *deployment) worker(id int, flags ...string) *proc {
	d.t.Helper()
	p := d.start(fmt.Sprintf("worker %d", id), append([]string{"-role", "worker", "-id", strconv.Itoa(id)}, flags...)...)
	if !p.waitLog("qgraphd: worker", 10*time.Second) {
		d.t.Fatalf("%s never listened:\n%s", p.name, p.log())
	}
	return p
}

// controller starts the controller and waits up to 10 s for /healthz to
// answer 200.
func (d *deployment) controller(flags ...string) *proc {
	d.t.Helper()
	p := d.start("controller", append([]string{"-role", "controller", "-serve", d.serve}, flags...)...)
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		if code, _, err := call(client, d.url+"/healthz", nil, nil); err == nil && code == http.StatusOK {
			return p
		}
		if time.Now().After(end) {
			d.t.Fatalf("deployment never healthy:\n%s", p.log())
		}
	}
}

// up starts workers 0..k-1, then the controller.
func (d *deployment) up(k int, ctrlFlags ...string) (*proc, []*proc) {
	d.t.Helper()
	var ws []*proc
	for id := range k {
		ws = append(ws, d.worker(id))
	}
	return d.controller(ctrlFlags...), ws
}

// stop SIGINTs ctrl. It, and then every worker that is still running, must
// exit 0: the workers stop through the protocol's Shutdown.
func (d *deployment) stop(ctrl *proc) {
	d.t.Helper()
	_ = ctrl.cmd.Process.Signal(os.Interrupt) // one that already exited is judged by its status below
	for _, p := range d.procs {
		if p.reaped {
			continue
		}
		p.reaped = true
		select {
		case <-p.done:
			expect(d.t, p.err == nil, "%s exited with %v, want 0", p.name, p.err)
		case <-time.After(20 * time.Second):
			d.t.Errorf("%s still running 20s after the controller's SIGINT", p.name)
			p.kill()
		}
	}
}

// cleanup kills what is still running and fails the test on any data race
// a process reported. On failure it logs the end of every process's output.
func (d *deployment) cleanup() {
	for _, p := range d.procs {
		select {
		case <-p.done:
		default:
			p.kill()
		}
		if out := p.log(); strings.Contains(out, "DATA RACE") {
			d.t.Errorf("%s reported a data race:\n%s", p.name, out)
		} else if d.t.Failed() {
			d.t.Logf("%s output, last 8 KB:\n%s", p.name, out[max(0, len(out)-8192):])
		}
	}
}

var client = &http.Client{Timeout: 15 * time.Second}

// call sends body (GET when nil, else POST as JSON) with c and decodes the
// answer into v when v is not nil.
func call(c *http.Client, url string, body, v any) (int, http.Header, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = c.Get(url)
	} else {
		b, _ := json.Marshal(body)
		resp, err = c.Post(url, "application/json", bytes.NewReader(b))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && v != nil {
		if err = json.Unmarshal(raw, v); err != nil {
			err = fmt.Errorf("%s: %w in %s", url, err, raw)
		}
	}
	return resp.StatusCode, resp.Header, err
}

// get decodes the body of GET path, whatever its status.
func get[T any](d *deployment, path string) T {
	d.t.Helper()
	var v T
	if _, _, err := call(client, d.url+path, nil, &v); err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	return v
}

// post decodes the answer to POST path, which must be 200.
func post[T any](d *deployment, path string, body any) T {
	d.t.Helper()
	var v T
	if code, _, err := call(client, d.url+path, body, &v); err != nil || code != http.StatusOK {
		d.t.Fatalf("POST %s: %d %v", path, code, err)
	}
	return v
}

// healthz is the part of the /healthz body the scenarios read.
type healthz struct {
	Status       string `json:"status"`
	GraphVersion uint64 `json:"graph_version"`
	DeadWorkers  []int  `json:"dead_workers"`
	Stragglers   []int  `json:"stragglers"`
}

func (d *deployment) version() uint64            { return get[healthz](d, "/healthz").GraphVersion }
func (d *deployment) stats() serve.StatsResponse { return get[serve.StatsResponse](d, "/stats") }

// metrics returns each /metrics sample by its series, `name{labels}`.
func (d *deployment) metrics() map[string]float64 {
	d.t.Helper()
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	m := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m
}

// reference answers SSSP 0 → 999 without the cache, as JSON writes it.
func (d *deployment) reference() string {
	target := int64(999)
	req := serve.QueryRequest{Kind: "sssp", Source: 0, Target: &target, NoCache: true}
	return string(post[struct{ Value json.RawMessage }](d, "/query", req).Value)
}

// mutate posts one batch and returns its ack and the X-QGraph-Version
// header's version.
func mutate(url string, ops []serve.MutateOp) (serve.MutateResponse, uint64, error) {
	var mr serve.MutateResponse
	code, hdr, err := call(client, url+"/mutate", serve.MutateRequest{Ops: ops}, &mr)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("POST /mutate: %d", code)
	}
	hver, _ := strconv.ParseUint(hdr.Get(serve.VersionHeader), 10, 64)
	return mr, hver, err
}

// batch is g.qgr.mut's i-th run of 50 ops.
func batch(i int) []serve.MutateOp { return stream[i*50 : (i+1)*50] }

// apply posts batches [from, to) one at a time, each awaiting its ack, and
// returns the last acknowledged version.
func (d *deployment) apply(from, to int) (v uint64) {
	for b := from; b < to; b++ {
		v = post[serve.MutateResponse](d, "/mutate", serve.MutateRequest{Ops: batch(b)}).Version
	}
	return v
}

// load is one run's offered load: open-loop queries at rate per second for
// dur from a pool of distinct ones (60 % SSSP, 30 % BFS, 10 % PageRank, or
// PageRank only), beside mutRate ops per second in batches of mutBatch,
// replayed from g.qgr.mut by one writer or synthetic over writers writers.
type load struct {
	rate, mutRate           float64
	dur, timeout            time.Duration
	pool, mutBatch, writers int
	pagerank, replay        bool
}

// tally counts a run's outcomes. A 429 or a 504 is neither ok nor failed.
type tally struct {
	ok, timeouts, failed, workerLost atomic.Int64 // queries
	applied, mutFailed               atomic.Int64 // mutation ops
}

// run starts l against d and returns a function that waits for the run,
// in-flight queries included, and returns its tally.
func (d *deployment) run(l load) func() *tally {
	d.t.Helper()
	n := int64(d.stats().Engine.Vertices)
	rng := rand.New(rand.NewPCG(1, 2))
	pool := make([]serve.QueryRequest, l.pool)
	for i := range pool {
		q := serve.QueryRequest{Kind: "pagerank", Source: rng.Int64N(n), MaxIters: 20, Epsilon: 1e-4}
		if x := rng.Float64(); !l.pagerank && x < 0.9 {
			target := rng.Int64N(n)
			q = serve.QueryRequest{Kind: "sssp", Source: q.Source, Target: &target}
			if x >= 0.6 {
				q.Kind = "bfs"
			}
		}
		pool[i] = q
	}
	tl := &tally{}
	qc := &http.Client{Timeout: l.timeout}
	var queries, writers sync.WaitGroup
	stop := make(chan struct{})
	if l.mutRate > 0 {
		nw := max(l.writers, 1)
		for w := range nw {
			writers.Add(1)
			go func() {
				defer writers.Done()
				d.write(l, w, nw, n, tl, stop)
			}()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Duration(float64(time.Second) / l.rate))
		defer tick.Stop()
		for start := time.Now(); time.Since(start) < l.dur; <-tick.C {
			q := pool[rng.IntN(len(pool))]
			queries.Add(1)
			go func() {
				defer queries.Done()
				tl.query(qc, d.url, q)
			}()
		}
		close(stop)
		queries.Wait()
		writers.Wait()
	}()
	return func() *tally {
		<-done
		return tl
	}
}

// query sends one query and counts its outcome. A client-side timeout is
// the load's own deadline expiring, not a server error.
func (tl *tally) query(c *http.Client, url string, q serve.QueryRequest) {
	var body struct{ Error string }
	code, _, err := call(c, url+"/query", q, &body)
	if strings.Contains(body.Error, "worker_lost") {
		tl.workerLost.Add(1)
	}
	switch ne := net.Error(nil); {
	case errors.As(err, &ne) && ne.Timeout():
		tl.timeouts.Add(1)
	case err == nil && code == http.StatusOK:
		tl.ok.Add(1)
	case err == nil && (code == http.StatusTooManyRequests || code == http.StatusGatewayTimeout):
	default:
		tl.failed.Add(1)
	}
}

// write is writer w of nw: it posts its share of l's op rate until stop,
// or until the replayed stream runs dry, each batch awaiting its commit.
// Synthetic ops add edges among the n vertices and reweight added ones.
func (d *deployment) write(l load, w, nw int, n int64, tl *tally, stop <-chan struct{}) {
	rng := rand.New(rand.NewPCG(uint64(w), 3))
	var added [][2]int64
	interval := time.Duration(float64(l.mutBatch) / (l.mutRate / float64(nw)) * float64(time.Second))
	for next := 0; !l.replay || next < len(stream); {
		var ops []serve.MutateOp
		if l.replay {
			ops = stream[next:min(next+l.mutBatch, len(stream))]
			next += len(ops)
		}
		for len(ops) < l.mutBatch && !l.replay {
			op := serve.MutateOp{Op: "add_edge", From: rng.Int64N(n), To: rng.Int64N(n), Weight: 0.1 + 2*rng.Float64()}
			if len(added) > 0 && rng.Float64() < 0.3 {
				e := added[rng.IntN(len(added))]
				op.Op, op.From, op.To = "set_weight", e[0], e[1]
			} else {
				added = append(added, [2]int64{op.From, op.To})
			}
			ops = append(ops, op)
		}
		t0 := time.Now()
		if mr, _, err := mutate(d.url, ops); err != nil {
			tl.mutFailed.Add(int64(len(ops)))
		} else {
			tl.applied.Add(int64(mr.Applied))
		}
		select {
		case <-stop:
			return
		case <-time.After(interval - time.Since(t0)):
		}
	}
}

func TestSmoke(t *testing.T) {
	t.Run("1-serve-mutations", serveMutations)
	t.Run("2-worker-kill", workerKill)
	t.Run("3-checkpoint-rejoin-restart", checkpointRejoinRestart)
	t.Run("4-wal-kill9-restart", walKill9Restart)
	t.Run("5-straggler", straggler)
	t.Run("8-mvcc-commit-pipeline", mvccCommitPipeline)
}

// expect fails t with the message unless ok.
func expect(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Errorf(format, args...)
	}
}

// serveMutations streams g.qgr.mut at the HTTP API beside query load.
func serveMutations(t *testing.T) {
	d := deploy(t, 2)
	ctrl, _ := d.up(2, "-commit-every", "100ms")
	tl := d.run(load{rate: 200, dur: 5 * time.Second, pool: 64, timeout: 10 * time.Second,
		mutRate: 100, mutBatch: 25, replay: true})()
	h := get[healthz](d, "/healthz")
	d.stop(ctrl)
	expect(t, tl.ok.Load() > 0, "no successful queries")
	expect(t, tl.failed.Load() == 0, "%d failed queries", tl.failed.Load())
	expect(t, tl.applied.Load() > 0, "no mutations applied")
	expect(t, tl.mutFailed.Load() == 0, "%d failed mutation ops", tl.mutFailed.Load())
	expect(t, h.GraphVersion > 0, "graph version did not advance")
	expect(t, h.Status == "ok", "/healthz %+v, want status ok", h)
}

// workerKill SIGKILLs worker 0 4 s into 12 s of load: recovery hands its
// partition to the survivor, and no client sees the loss.
func workerKill(t *testing.T) {
	d := deploy(t, 2)
	ctrl, ws := d.up(2, "-commit-every", "100ms", "-heartbeat-every", "200ms", "-heartbeat-timeout", "1s")
	wait := d.run(load{rate: 150, dur: 12 * time.Second, pool: 64, timeout: 15 * time.Second})
	time.Sleep(4 * time.Second)
	ws[0].kill()
	tl := wait()
	st, h := d.stats(), get[healthz](d, "/healthz")
	d.stop(ctrl)
	expect(t, tl.ok.Load() > 0, "no successful queries through the kill")
	expect(t, tl.failed.Load() == 0, "%d failed queries during recovery", tl.failed.Load())
	expect(t, tl.workerLost.Load() == 0, "%d worker_lost responses reached clients", tl.workerLost.Load())
	expect(t, st.Recovery.Recoveries >= 1, "no recovery episode recorded")
	expect(t, st.Recovery.LastRecoveryMS < 10000, "recovery took %.0fms", st.Recovery.LastRecoveryMS)
	expect(t, h.Status == "ok", "/healthz %+v after recovery, want status ok", h)
	expect(t, fmt.Sprint(h.DeadWorkers) == "[0]", "dead_workers %v, want [0]", h.DeadWorkers)
}

// checkpointRejoinRestart forces a checkpoint under mutation load, SIGKILLs
// worker 0 and restarts it with -rejoin, then restarts the whole deployment
// from the checkpoint.
func checkpointRejoinRestart(t *testing.T) {
	d := deploy(t, 2, "-snapshot-dir", t.TempDir())
	ctrl, ws := d.up(2, "-commit-every", "50ms", "-heartbeat-every", "200ms", "-heartbeat-timeout", "1s")
	start := time.Now()
	at := func(d time.Duration) { time.Sleep(time.Until(start.Add(d))) }
	wait := d.run(load{rate: 100, dur: 12 * time.Second, pool: 64, timeout: 15 * time.Second,
		mutRate: 400, mutBatch: 50})
	at(2500 * time.Millisecond)
	cut := post[snapshot.Result](d, "/admin/snapshot", struct{}{})
	at(4 * time.Second)
	ws[0].kill()
	at(6500 * time.Millisecond)
	rejoined := d.worker(0, "-rejoin")
	tl := wait()
	st := d.stats()
	expect(t, cut.Cut, "forced snapshot did not cut")
	expect(t, cut.Persisted, "snapshot not persisted")
	expect(t, cut.Version > 0, "checkpoint at version 0")
	// The op log is bounded: ops were truncated, and the retained tail is
	// smaller than what the run applied.
	s := st.Snapshot
	expect(t, s.TruncatedOps > 0 && int64(s.DeltaLogOps) < tl.applied.Load(),
		"delta log not bounded by the checkpoint: %d ops truncated, %d of %d applied retained",
		s.TruncatedOps, s.DeltaLogOps, tl.applied.Load())
	// The rejoined worker replayed from the checkpoint version, not 0.
	rejoined.waitLog("msg=rejoined", 10*time.Second)
	m := regexp.MustCompile(`msg=rejoined .*checkpoint_version=(\d+)`).FindStringSubmatch(rejoined.log())
	expect(t, m != nil && m[1] != "0", "rejoin did not replay from a checkpoint: %q", m)
	expect(t, st.Recovery.Recoveries >= 1, "no recovery episode recorded")
	expect(t, st.Recovery.LastRecoveryMS < 10000, "recovery took %.0fms", st.Recovery.LastRecoveryMS)

	// Restart from disk: checkpoint the final state, remember an answer,
	// bounce the whole deployment, and ask again.
	post[snapshot.Result](d, "/admin/snapshot", struct{}{})
	val, ver := d.reference(), d.version()
	d.stop(ctrl)
	ctrl, _ = d.up(2, "-commit-every", "50ms")
	v := d.version()
	expect(t, v == ver, "restart lost the graph version: %d, then %d", ver, v)
	got := d.reference()
	expect(t, got == val, "restart changed the answer: %s, then %s", val, got)
	d.stop(ctrl)
}

// walKill9Restart SIGKILLs a whole WAL-durable deployment after 25 acked
// batches: the restart recovers exactly the last acked version, and after
// the rest of the stream answers as a never-crashed control run does.
func walKill9Restart(t *testing.T) {
	const batches, killAt = 40, 25
	control := deploy(t, 2)
	ctrl, _ := control.up(2, "-commit-every", "50ms")
	verc := control.apply(0, batches)
	valc := control.reference()
	control.stop(ctrl)

	d := deploy(t, 2, "-snapshot-dir", t.TempDir(), "-wal-dir", t.TempDir())
	ctrl, ws := d.up(2, "-commit-every", "50ms")
	d.apply(0, killAt/2)
	post[snapshot.Result](d, "/admin/snapshot", struct{}{}) // the restart reads a checkpoint and the WAL tail past it
	lastAck := d.apply(killAt/2, killAt)
	for _, p := range append(ws, ctrl) {
		p.kill()
	}

	ctrl, _ = d.up(2, "-commit-every", "50ms")
	v := d.version()
	expect(t, v == lastAck, "recovered version %d != last acked version %d (lost or duplicated ops)", v, lastAck)
	expect(t, strings.Contains(ctrl.log(), "wal replayed versions"), "restart did not replay the WAL tail")
	expect(t, d.stats().WAL.Enabled, "/stats wal block disabled")
	v = d.apply(killAt, batches)
	expect(t, v == verc, "final version %d != control %d", v, verc)
	val := d.reference()
	expect(t, val == valc, "crashed run answers %s, control answers %s", val, valc)
	d.stop(ctrl)
}

// straggler slows worker 0 by 5 ms a superstep, about 50 times its peers'
// compute (50 ms when race-built workers compute about 8 times slower), under
// mixed load: the watchdog must name it on /events, degrade /healthz and show
// it on the step gauge. TestStragglerWatchdogEndToEnd covers the clearing.
func straggler(t *testing.T) {
	d, slow := deploy(t, 3), 5*time.Millisecond
	if race {
		slow *= 10
	}
	d.worker(0, "-fault-slow-compute", slow.String())
	d.worker(1)
	d.worker(2)
	ctrl := d.controller("-commit-every", "100ms")
	d.run(load{rate: 100, dur: 6 * time.Second, pool: 32, timeout: 10 * time.Second,
		mutRate: 50, mutBatch: 20, replay: true})()
	h := get[healthz](d, "/healthz")
	ev := get[struct{ Events []health.Event }](d, "/events?type=event_straggler").Events
	m := d.metrics()
	d.stop(ctrl)

	expect(t, len(ev) > 0, "no event_straggler in /events")
	named := slices.ContainsFunc(ev, func(e health.Event) bool { return e.Type == health.EventStraggler && e.Worker == 0 })
	expect(t, named, "no straggler event names worker 0: %+v", ev)
	expect(t, h.Status == "degraded", "/healthz status %q under a straggler, want degraded", h.Status)
	expect(t, fmt.Sprint(h.Stragglers) == "[0]", "/healthz stragglers %v, want [0]", h.Stragglers)
	// Worker 0's step gauge is over 4 times (the detector's k) the slowest
	// of its peers', and at least 1 ms.
	gauge := func(w int) float64 { return m[fmt.Sprintf(`qgraph_worker_step_ewma_ms{worker="%d"}`, w)] }
	w0, peer := gauge(0), max(gauge(1), gauge(2))
	expect(t, peer > 0 && w0 > 4*peer && w0 >= 1, "step gauge: worker 0 %.3fms, slowest peer %.3fms", w0, peer)
	expect(t, m["qgraph_health_stragglers_total"] >= 1, "straggler counter not on /metrics")
	_, ok := m[`qgraph_worker_ping_rtt_seconds{worker="0"}`]
	expect(t, ok, "heartbeat RTT gauge missing")
}

// mvccCommitPipeline runs a WAL-durable deployment on hot commits (every
// POST seals its own version): (a) PageRank readers over 8 writers neither
// stall nor block them, (b) the version chain is monotone and each ack's
// header equals its body, (c) a SIGKILL amid 6 closed-loop writers
// recovers every acked version, at most one in-flight batch per writer
// more, and the chain resumes gap-free.
func mvccCommitPipeline(t *testing.T) {
	d := deploy(t, 2, "-snapshot-dir", t.TempDir(), "-wal-dir", t.TempDir())
	hot := []string{"-commit-every", "1ms", "-max-batch-ops", "5"}
	ctrl, ws := d.up(2, hot...)

	// (a) Long readers over a hot write plane.
	ver0 := d.version()
	wait := d.run(load{rate: 30, dur: 8 * time.Second, pool: 32, timeout: 15 * time.Second, pagerank: true,
		mutRate: 2000, mutBatch: 5, writers: 8})
	time.Sleep(2 * time.Second)
	// A PageRank issued now pins the version at admission and answers from
	// it while commits race past, so its version is below the one committed
	// after it returns. Writers post every 20 ms, so the probe after it waits
	// out one burst.
	vq0 := d.version()
	code, hdr, err := call(client, d.url+"/query", serve.QueryRequest{Kind: "pagerank", Source: 0, NoCache: true}, nil)
	expect(t, err == nil && code == http.StatusOK, "mid-stream pagerank: %d %v", code, err)
	time.Sleep(50 * time.Millisecond)
	vq1 := d.version()
	pin, err := strconv.ParseUint(hdr.Get(serve.VersionHeader), 10, 64)
	expect(t, err == nil && vq0 <= pin && pin < vq1,
		"pagerank pinned v%d outside [%d, %d): readers and writers are not overlapping", pin, vq0, vq1)
	tl := wait()
	expect(t, tl.ok.Load() > 0, "no PageRanks completed under write load")
	expect(t, tl.failed.Load() == 0, "%d readers failed under write load", tl.failed.Load())
	expect(t, tl.timeouts.Load() == 0, "%d readers stalled past the client timeout", tl.timeouts.Load())
	expect(t, tl.mutFailed.Load() == 0, "%d mutation ops failed", tl.mutFailed.Load())
	prev := d.version()
	expect(t, prev-ver0 >= 100, "only %d versions committed under sustained load", prev-ver0)
	time.Sleep(time.Second)
	mv := d.stats().MVCC
	expect(t, mv.Pinned == 0, "%d reader pins leaked after quiescence", mv.Pinned)
	expect(t, mv.Peak >= 2, "peak live versions %d: no MVCC overlap ever happened", mv.Peak)

	// (b) Ten serial batches: each ack's version exceeds the last, and its
	// header equals its body.
	for b := range 10 {
		mr, hver, err := mutate(d.url, batch(b))
		if err != nil {
			t.Fatalf("serial mutate batch %d: %v", b, err)
		}
		expect(t, mr.Version > prev, "version chain not monotone: %d after %d", mr.Version, prev)
		expect(t, hver == mr.Version, "/mutate header v%d != body v%d", hver, mr.Version)
		prev = mr.Version
	}

	// (c) SIGKILL with acks outstanding: six closed-loop writers, each
	// cycling its own ten batches until the deployment dies.
	var lastAck atomic.Uint64
	var writers sync.WaitGroup
	for i := range 6 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for b := 0; ; b = (b + 1) % 10 {
				mr, _, err := mutate(d.url, batch(10+i*10+b))
				if err != nil {
					return
				}
				for v := lastAck.Load(); mr.Version > v && !lastAck.CompareAndSwap(v, mr.Version); v = lastAck.Load() {
				}
			}
		}()
	}
	time.Sleep(2500 * time.Millisecond)
	for _, p := range append(ws, ctrl) {
		p.kill()
	}
	writers.Wait()
	acked := lastAck.Load()
	expect(t, acked > prev, "writers never got an ack before the kill (last ack %d, chain at %d)", acked, prev)

	ctrl, _ = d.up(2, hot...)
	v := d.version()
	expect(t, v >= acked, "recovered v%d lost acked version %d", v, acked)
	expect(t, v <= acked+6, "recovered v%d is past the last ack v%d by more than the 6 possible in-flight batches", v, acked)
	expect(t, strings.Contains(ctrl.log(), "wal replayed versions"), "restart did not replay the WAL tail")
	head := d.stats().WAL.HeadVersion
	expect(t, head == v, "WAL head v%d != recovered graph v%d", head, v)
	// One quiet POST lands at exactly v+1. It names base-graph vertices only:
	// how far the writers got decides which added vertices exist.
	mr, _, err := mutate(d.url, []serve.MutateOp{{Op: "add_edge", From: 0, To: 1, Weight: 2.5}})
	expect(t, err == nil && mr.Version == v+1, "post-restart mutate: v%d, want v%d: %v", mr.Version, v+1, err)
	d.stop(ctrl)
}
