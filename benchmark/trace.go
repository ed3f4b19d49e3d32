package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/delta"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/serve"
	"qgraph/internal/transport"
)

// All recording of the traced pass lives in this file, around the calls
// into each layer: an http.Handler middleware, a serve.Backend decorator
// and a transport.Network decorator. Nothing inside the program is
// touched; spans inside it are a later change.
//
// One request's spans nest as
//
//	client → http → serve → engine | commit
//
// and share the request id the client put in the trace header. A layer's
// self time is its span minus its child, so the per-layer rows sum to the
// client round trip exactly.

// Span names.
const (
	spanClient = "client" // send → body read, measured by the client
	spanHTTP   = "http"   // handler entry → handler return
	spanServe  = "serve"  // handler entry → response header written
	spanEngine = "engine" // Backend.Schedule → result
	spanCommit = "commit" // Backend.Mutate → result
)

// span is one timed region. Times are nanoseconds since the tracer began.
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// WorkerNS, on engine spans, is the query's worker compute on the
	// critical path: per reported superstep, the slowest worker's
	// BarrierSynch.ComputeNS.
	WorkerNS int64 `json:"worker_compute_ns,omitempty"`
}

// tracer keeps every span in memory until the pass ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// commits maps a mutation batch's content hash to the requests that
	// carry it: Backend.Mutate receives only the ops, so the batch itself
	// is the correlation key. Equal batches are interchangeable.
	commits map[uint64][]uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), commits: make(map[uint64][]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func hashOps(ops []delta.Op) uint64 {
	h := fnv.New64a()
	var b [13]byte
	for _, o := range ops {
		b[0] = byte(o.Kind)
		binary.LittleEndian.PutUint32(b[1:], uint32(o.From))
		binary.LittleEndian.PutUint32(b[5:], uint32(o.To))
		binary.LittleEndian.PutUint32(b[9:], math.Float32bits(o.Weight))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// expectCommit is called by the client before it posts a mutation.
func (t *tracer) expectCommit(ops []delta.Op, req uint64) {
	h := hashOps(ops)
	t.mu.Lock()
	t.commits[h] = append(t.commits[h], req)
	t.mu.Unlock()
}

func (t *tracer) takeCommit(ops []delta.Op) uint64 {
	h := hashOps(ops)
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.commits[h]
	if len(q) == 0 {
		return 0
	}
	t.commits[h] = q[1:]
	return q[0]
}

// headerTimer notes when the handler first writes its response header:
// everything before is the serving layer deciding the answer, everything
// after is encoding and writing it.
type headerTimer struct {
	http.ResponseWriter
	t     *tracer
	wrote int64
}

func (w *headerTimer) WriteHeader(code int) {
	if w.wrote == 0 {
		w.wrote = w.t.now()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *headerTimer) Write(b []byte) (int, error) {
	if w.wrote == 0 {
		w.wrote = w.t.now()
	}
	return w.ResponseWriter.Write(b)
}

// middleware records the http and serve spans of requests that carry a
// request id (probes and /stats reads do not).
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get(serve.TraceHeader), 10, 64)
		if err != nil || req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		hw := &headerTimer{ResponseWriter: w, t: t}
		next.ServeHTTP(hw, r)
		end := t.now()
		if hw.wrote == 0 {
			hw.wrote = end
		}
		t.add(span{Req: req, Name: spanHTTP, Parent: spanClient, Start: start, End: end})
		t.add(span{Req: req, Name: spanServe, Parent: spanHTTP, Start: start, End: hw.wrote})
	})
}

// tracedBackend times Schedule→result and Mutate→result. The serving layer
// copies the inbound trace header into spec.TraceID, which is how a
// Schedule call finds its request.
type tracedBackend struct {
	serve.Backend
	tr *tracer
	nc *netCounters
}

func (b *tracedBackend) Schedule(spec query.Spec) (<-chan controller.Result, error) {
	start := b.tr.now()
	in, err := b.Backend.Schedule(spec)
	if err != nil {
		return nil, err
	}
	out := make(chan controller.Result, 1)
	go func() { // ends with the query: the controller always delivers a result
		res := <-in
		end := b.tr.now()
		b.tr.add(span{Req: spec.TraceID, Name: spanEngine, Parent: spanServe,
			Start: start, End: end, WorkerNS: b.nc.takeCriticalCompute(spec.ID)})
		out <- res
	}()
	return out, nil
}

func (b *tracedBackend) Mutate(ops []delta.Op) (<-chan controller.MutationResult, error) {
	req := b.tr.takeCommit(ops)
	start := b.tr.now()
	in, err := b.Backend.Mutate(ops)
	if err != nil {
		return nil, err
	}
	out := make(chan controller.MutationResult, 1)
	go func() { // ends with the commit: the controller always delivers a result
		res := <-in
		b.tr.add(span{Req: req, Name: spanCommit, Parent: spanServe, Start: start, End: b.tr.now()})
		out <- res
	}()
	return out, nil
}

// netTotals is what the transport decorator has seen so far: every message
// any node sent, with its wire size and the time Send took, plus the
// compute times workers piggyback on their barrier reports.
type netTotals struct {
	msgs, bytes   int64
	vertexBytes   int64 // VertexBatch frames
	vertexEntries int64 // vertex-to-vertex messages inside them
	barrierBytes  int64 // BarrierSynch frames
	sendNS        int64
	computeNS     int64 // Σ BarrierSynch.ComputeNS
	reports       int64 // BarrierSynch frames that reported compute
}

func (a netTotals) sub(b netTotals) netTotals {
	return netTotals{
		msgs: a.msgs - b.msgs, bytes: a.bytes - b.bytes,
		vertexBytes: a.vertexBytes - b.vertexBytes, vertexEntries: a.vertexEntries - b.vertexEntries,
		barrierBytes: a.barrierBytes - b.barrierBytes, sendNS: a.sendNS - b.sendNS,
		computeNS: a.computeNS - b.computeNS, reports: a.reports - b.reports,
	}
}

type netCounters struct {
	mu sync.Mutex
	netTotals
	// critical holds, per running query and reported superstep, the
	// slowest worker's compute time.
	critical map[query.ID]map[int32]int64
}

func newNetCounters() *netCounters {
	return &netCounters{critical: make(map[query.ID]map[int32]int64)}
}

func (c *netCounters) totals() netTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.netTotals
}

func (c *netCounters) observe(m protocol.Message) {
	size := int64(transport.WireSize(m))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs++
	c.bytes += size
	switch v := m.(type) {
	case *protocol.VertexBatch:
		c.vertexBytes += size
		c.vertexEntries += int64(len(v.Entries))
	case *protocol.BarrierSynch:
		c.barrierBytes += size
		if v.Finished {
			return // final statistics after the result; no new compute
		}
		c.computeNS += v.ComputeNS
		c.reports++
		steps := c.critical[v.Q]
		if steps == nil {
			steps = make(map[int32]int64, 16)
			c.critical[v.Q] = steps
		}
		steps[v.Step] = max(steps[v.Step], v.ComputeNS)
	}
}

func (c *netCounters) sent(d time.Duration) {
	c.mu.Lock()
	c.sendNS += int64(d)
	c.mu.Unlock()
}

// takeCriticalCompute returns and forgets query q's critical-path compute.
func (c *netCounters) takeCriticalCompute(q query.ID) int64 {
	c.mu.Lock()
	steps := c.critical[q]
	delete(c.critical, q)
	c.mu.Unlock()
	var total int64
	for _, ns := range steps {
		total += ns
	}
	return total
}

// countingNet hands out endpoints that count what they send.
type countingNet struct {
	transport.Network
	c *netCounters
}

func (n *countingNet) Conn(id protocol.NodeID) transport.Conn {
	return &countingConn{Conn: n.Network.Conn(id), c: n.c}
}

type countingConn struct {
	transport.Conn
	c *netCounters
}

func (c *countingConn) Send(to protocol.NodeID, m protocol.Message) error {
	// Observed before the send: once sent, the result it completes may be
	// delivered (and the query's compute collected) before Send returns.
	c.c.observe(m)
	t0 := time.Now()
	err := c.Conn.Send(to, m)
	c.c.sent(time.Since(t0))
	return err
}
