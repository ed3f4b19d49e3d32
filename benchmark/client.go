package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qgraph/internal/serve"
)

// numClients is C: callers of a route planner wait for their answer, so
// the load is a closed loop, one keep-alive connection per client. More
// clients than cores would only measure the clients queueing on the CPU
// the server shares with them.
func numClients() int { return min(runtime.NumCPU(), 2) }

// result is what the client keeps of one operation.
type result struct {
	latency time.Duration // send → body read
	status  int           // 0 when the request itself failed
	// version is the X-QGraph-Version of the response; sawVersion is the
	// highest version any client had been told of when this was sent. A
	// read was served at some version in [sawVersion, version].
	version, sawVersion uint64

	value    float64
	hasValue bool
	touched  int
	workers  int
	hit      bool // cache hit or coalesced
	engineMS float64
	queueMS  float64
	req      uint64 // request id (traced pass)
}

func (r *result) ok() bool { return r.status == http.StatusOK }

// clientRun is one client's share of a pass.
type clientRun struct {
	ops     []op
	results []result
	warm    int // ops[:warm] are untimed
	done    int // operations issued (== len(ops) unless the guard stopped it)
}

// pass is one driven run of a plan against a stack.
type pass struct {
	clients    []*clientRun
	wall       time.Duration // of the timed operations, all clients
	timedStart time.Time
	cut        bool // the wall-time guard stopped the run early
	// Server counters and (traced pass) transport totals at the start and
	// end of the timed operations.
	stats0, stats1 serve.StatsResponse
	net0, net1     netTotals
}

// client issues operations over one keep-alive connection.
type client struct {
	http *http.Client
	url  string
	tr   *tracer
	seen *atomic.Uint64 // highest committed version any client was told of
	next *atomic.Uint64 // request ids
	buf  bytes.Buffer
}

func newClient(url string, tr *tracer, seen, next *atomic.Uint64) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		url: url, tr: tr, seen: seen, next: next,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(o *op) result {
	path := "/query"
	if o.mutate() {
		path = "/mutate"
	}
	var res result
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(o.body))
	if err != nil {
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		res.req = c.next.Add(1)
		req.Header.Set(serve.TraceHeader, strconv.FormatUint(res.req, 10))
		if o.mutate() {
			c.tr.expectCommit(o.ops, res.req)
		}
	}
	res.sawVersion = c.seen.Load()
	var start int64
	if c.tr != nil {
		start = c.tr.now()
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return res
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	res.latency = time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return res
	}
	if c.tr != nil {
		c.tr.add(span{Req: res.req, Name: spanClient, Start: start, End: start + int64(res.latency)})
	}
	res.status = resp.StatusCode
	res.version, _ = strconv.ParseUint(resp.Header.Get(serve.VersionHeader), 10, 64)
	if res.status != http.StatusOK {
		return res
	}
	if o.mutate() {
		var mr serve.MutateResponse
		if json.Unmarshal(c.buf.Bytes(), &mr) != nil {
			res.status = 0
			return res
		}
		res.version = mr.Version
	} else {
		var qr serve.QueryResponse
		if json.Unmarshal(c.buf.Bytes(), &qr) != nil {
			res.status = 0
			return res
		}
		if qr.Value != nil {
			res.value, res.hasValue = *qr.Value, true
		}
		res.touched, res.workers = qr.Touched, qr.Workers
		res.hit = qr.CacheHit || qr.Coalesced
		res.engineMS, res.queueMS = qr.EngineMS, qr.QueueWaitMS
	}
	for {
		seen := c.seen.Load()
		if res.version <= seen || c.seen.CompareAndSwap(seen, res.version) {
			break
		}
	}
	return res
}

func fetchStats(url string) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// drive runs the plan: client 0 issues the priming operations, every
// client then runs its warm-up share, all wait for each other, and the
// timed operations start together. maxWall guards the harness against a
// box far slower than the reference: past it the clients stop issuing, and
// the operations not issued are neither attempted nor failed.
func drive(st *stack, pl *plan, maxWall time.Duration) (*pass, error) {
	var seen, next atomic.Uint64
	p := &pass{}
	clients := make([]*client, len(pl.perClient))
	for i, ops := range pl.perClient {
		clients[i] = newClient(st.url, st.tr, &seen, &next)
		defer clients[i].close()
		warm := int(float64(len(ops)) * warmShare)
		p.clients = append(p.clients, &clientRun{ops: ops, results: make([]result, len(ops)), warm: warm})
	}
	for i := range pl.prime {
		if r := clients[0].do(&pl.prime[i]); !r.ok() {
			return nil, fmt.Errorf("priming operation %d failed (status %d)", i, r.status)
		}
	}

	var warmed, finished sync.WaitGroup
	start := make(chan struct{})
	var stop atomic.Bool
	ends := make([]time.Time, len(clients))
	for i, cr := range p.clients {
		warmed.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			c := clients[i]
			for j := 0; j < cr.warm; j++ {
				cr.results[j] = c.do(&cr.ops[j])
			}
			cr.done = cr.warm
			warmed.Done()
			<-start
			for j := cr.warm; j < len(cr.ops) && !stop.Load(); j++ {
				cr.results[j] = c.do(&cr.ops[j])
				cr.done = j + 1
			}
			ends[i] = time.Now()
		}()
	}
	warmed.Wait()
	var err error
	if p.stats0, err = fetchStats(st.url); err != nil {
		stop.Store(true)
		close(start)
		finished.Wait()
		return nil, err
	}
	if st.nc != nil {
		p.net0 = st.nc.totals()
	}
	// Garbage of generation, set-up and warm-up is not the timed run's.
	runtime.GC()
	p.timedStart = time.Now()
	close(start)
	guard := time.AfterFunc(maxWall, func() { stop.Store(true) })
	finished.Wait()
	guard.Stop()
	p.cut = stop.Load()
	for _, e := range ends {
		p.wall = max(p.wall, e.Sub(p.timedStart))
	}
	if st.nc != nil {
		p.net1 = st.nc.totals()
	}
	if p.stats1, err = fetchStats(st.url); err != nil {
		return nil, err
	}
	return p, nil
}
