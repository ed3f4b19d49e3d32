package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/faultpoint"
	"qgraph/internal/obs"
)

// ---------------------------------------------------------------------------
// Prometheus text-format helpers

// promSample matches one exposition sample line: name, optional rendered
// label set, one float value.
var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]Inf|[-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)$`)

var promComment = regexp.MustCompile(
	`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))$`)

// scrapeMetrics fetches /metrics, validates every line against the text
// exposition format (each sample preceded by a TYPE declaration for its
// family), and returns the samples keyed by "name" or `name{labels}`.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	typed := make(map[string]string) // family -> declared type
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			m := promComment.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("/metrics line %d: malformed comment %q", ln+1, line)
			}
			if strings.HasPrefix(m[1], "TYPE ") {
				fields := strings.Fields(m[1])
				typed[fields[1]] = fields[2]
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("/metrics line %d: malformed sample %q", ln+1, line)
		}
		name := m[1]
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
				fam = base
			}
		}
		if typed[fam] == "" {
			t.Fatalf("/metrics line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		var v float64
		if _, err := fmt.Sscanf(m[3], "%g", &v); err != nil {
			t.Fatalf("/metrics line %d: unparseable value %q", ln+1, m[3])
		}
		out[name+m[2]] = v
	}
	if len(out) == 0 {
		t.Fatal("/metrics served no samples")
	}
	return out
}

// TestMetricsEndpointAgreesWithStats drives traffic through a stub
// backend and asserts /metrics is valid Prometheus text whose values
// match the /stats JSON — both render the same counters, so any
// disagreement is a drift bug.
func TestMetricsEndpointAgreesWithStats(t *testing.T) {
	b := newStubBackend()
	_, ts := newTestServer(t, b, nil)

	req := QueryRequest{Kind: "sssp", Source: 2, Target: target(9)}
	if code, _, _ := postQuery(t, ts.URL, req); code != 200 {
		t.Fatalf("miss: %d", code)
	}
	if code, qr, _ := postQuery(t, ts.URL, req); code != 200 || !qr.CacheHit {
		t.Fatalf("hit: %d %+v", code, qr)
	}
	if code, _, _ := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: 1}); code != 200 {
		t.Fatalf("bfs: %d", code)
	}
	mut, _ := json.Marshal(MutateRequest{Ops: []MutateOp{
		{Op: "add_edge", From: 1, To: 9, Weight: 2},
		{Op: "add_edge", From: 2, To: 9, Weight: 2},
	}})
	if resp, err := http.Post(ts.URL+"/mutate", "application/json", bytes.NewReader(mut)); err != nil || resp.StatusCode != 200 {
		t.Fatalf("mutate: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	got := scrapeMetrics(t, ts.URL)
	st := getStats(t, ts.URL)

	for name, want := range map[string]float64{
		"qgraph_serve_received_total":   float64(st.Serve.Received),
		"qgraph_serve_completed_total":  float64(st.Serve.Completed),
		"qgraph_serve_failed_total":     float64(st.Serve.Failed),
		"qgraph_cache_hits_total":       float64(st.Serve.CacheHits),
		"qgraph_cache_misses_total":     float64(st.Serve.CacheMisses),
		"qgraph_mutation_ops_total":     float64(st.Serve.MutationOps),
		"qgraph_mutation_batches_total": float64(st.Serve.MutationBatches),
		"qgraph_cache_entries":          float64(st.Cache.Entries),
		"qgraph_admission_in_flight":    float64(st.Admission.InFlight),
		"qgraph_admission_queued":       float64(st.Admission.Queued),
		"qgraph_serve_rejected_total":   0,
		"qgraph_serve_expired_total":    0,
		"qgraph_mutations_failed_total": 0,
		"qgraph_request_seconds_count":  3,
		"qgraph_trace_ring_active":      0,
		"qgraph_trace_ring_completed":   3,
	} {
		if v, ok := got[name]; !ok {
			t.Errorf("/metrics is missing %s", name)
		} else if v != want {
			t.Errorf("%s = %g, want %g (stats %+v)", name, v, want, st.Serve)
		}
	}
	if st.Serve.Received != 3 || st.Serve.CacheHits != 1 {
		t.Fatalf("unexpected traffic accounting: %+v", st.Serve)
	}
	// Histogram invariants: buckets cumulative and +Inf equals _count.
	if inf, count := got[`qgraph_request_seconds_bucket{le="+Inf"}`], got["qgraph_request_seconds_count"]; inf != count {
		t.Fatalf("request_seconds +Inf bucket %g != count %g", inf, count)
	}
}

// TestTraceEndpoints exercises /trace/{id} and /traces over the stub
// backend, including the error paths and the no-leak invariant on the
// tracer ring.
func TestTraceEndpoints(t *testing.T) {
	b := newStubBackend()
	s, ts := newTestServer(t, b, nil)

	ids := make([]int64, 0, 3)
	for i := int64(0); i < 3; i++ {
		code, qr, _ := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: i, NoCache: true})
		if code != 200 {
			t.Fatalf("query %d: %d", i, code)
		}
		ids = append(ids, qr.ID)
	}

	var tq tracedQuery
	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	if code := getJSON(fmt.Sprintf("/trace/%d", ids[1]), &tq); code != 200 {
		t.Fatalf("GET /trace/%d: %d", ids[1], code)
	}
	if tq.Trace.QueryID != ids[1] || !tq.Trace.Complete || tq.Trace.TraceID == 0 {
		t.Fatalf("trace view %+v, want complete trace for query %d", tq.Trace, ids[1])
	}
	if tq.Trace.Root.Name != "query" {
		t.Fatalf("root span %q, want \"query\"", tq.Trace.Root.Name)
	}
	names := map[string]bool{}
	for _, c := range tq.Trace.Root.Children {
		names[c.Name] = true
	}
	if !names["admission"] {
		t.Fatalf("root children %v, want an admission span", names)
	}
	if len(tq.Phases) == 0 {
		t.Fatal("no phase attribution rows")
	}

	var views []tracedQuery
	if code := getJSON("/traces?slowest=2", &views); code != 200 {
		t.Fatalf("GET /traces: %d", code)
	}
	if len(views) != 2 {
		t.Fatalf("got %d traces, want 2", len(views))
	}
	if views[0].Trace.DurationMS < views[1].Trace.DurationMS {
		t.Fatalf("traces not sorted slowest-first: %g < %g",
			views[0].Trace.DurationMS, views[1].Trace.DurationMS)
	}

	var errBody errorResponse
	if code := getJSON("/trace/999999", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", code)
	}
	if code := getJSON("/traces?slowest=bogus", &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad slowest=: %d, want 400", code)
	}

	// No leaked live traces: every request finished, so the only retained
	// state is the completed ring.
	active, completed := s.obs.T().Occupancy()
	if active != 0 || completed != 3 {
		t.Fatalf("tracer occupancy active=%d completed=%d, want 0/3", active, completed)
	}

	// NoTrace disables the per-query span machinery but not /metrics.
	_, ts2 := newTestServer(t, newStubBackend(), func(c *Config) { c.NoTrace = true })
	if code, _, _ := postQuery(t, ts2.URL, QueryRequest{Kind: "bfs", Source: 1}); code != 200 {
		t.Fatalf("NoTrace query: %d", code)
	}
	resp, err := http.Get(ts2.URL + "/trace/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("NoTrace /trace: %d, want 404", resp.StatusCode)
	}
	scrapeMetrics(t, ts2.URL) // still valid exposition
}

// syncBuffer is a mutex-guarded log sink for concurrent slog writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceSpanCoverage runs real queries over a real engine sharing one
// Obs with the serving layer and asserts the paper-trail invariants: the
// engine span carries superstep and per-worker children, the span phase
// durations sum to within 10% of the end-to-end latency, worker
// structured logs carry the trace IDs, and no live trace leaks.
func TestTraceSpanCoverage(t *testing.T) {
	net := testRoad(t)
	logs := &syncBuffer{}
	o := obs.New(obs.NewLogger(logs, "info", true, ""))
	defer slowSupersteps(100 * time.Microsecond)() // engine time dominates tracing slack
	eng, err := core.Start(core.Config{Workers: 4, Graph: net.G, Obs: o})
	if err != nil {
		t.Fatalf("core.Start: %v", err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng.Controller(), GraphID: 7, Obs: o})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	n := int64(net.G.NumVertices())
	ids := make([]int64, 0, 4)
	for i := int64(0); i < 4; i++ {
		code, qr, _ := postQuery(t, ts.URL, QueryRequest{
			Kind: "sssp", Source: i, Target: target(n - 1 - i),
		})
		if code != 200 {
			t.Fatalf("query %d: %d", i, code)
		}
		ids = append(ids, qr.ID)
	}

	checked := 0
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/trace/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var tq tracedQuery
		if err := json.NewDecoder(resp.Body).Decode(&tq); err != nil {
			t.Fatalf("decode trace %d: %v", id, err)
		}
		resp.Body.Close()
		root := tq.Trace.Root

		var engine *obs.SpanView
		for i := range root.Children {
			if root.Children[i].Name == "engine" {
				engine = &root.Children[i]
			}
		}
		if engine == nil {
			t.Fatalf("trace %d has no engine span (children %+v)", id, root.Children)
		}
		steps, workerSpans := 0, 0
		for _, c := range engine.Children {
			if strings.HasPrefix(c.Name, "superstep") {
				steps++
				for _, w := range c.Children {
					if strings.HasPrefix(w.Name, "worker") {
						workerSpans++
					}
				}
			}
		}
		if steps == 0 || workerSpans == 0 {
			t.Fatalf("trace %d: %d superstep spans, %d worker spans, want both > 0",
				id, steps, workerSpans)
		}

		// The acceptance bar: tracked phases cover ≥90% of end-to-end time.
		// Sub-millisecond traces are skipped — there the fixed per-request
		// overhead (JSON decode, cache store) dwarfs any measurable phase.
		if root.DurationMS < 1 {
			continue
		}
		var covered float64
		for _, c := range root.Children {
			covered += c.DurationMS
		}
		if covered < 0.9*root.DurationMS || covered > 1.1*root.DurationMS {
			t.Errorf("trace %d: spans cover %.3fms of %.3fms end-to-end (%.0f%%), want within 10%%",
				id, covered, root.DurationMS, 100*covered/root.DurationMS)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trace exceeded 1ms; the coverage bound was never exercised")
	}

	// Worker structured logs carry the trace IDs serve minted.
	logged := logs.String()
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/trace/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var tq tracedQuery
		if err := json.NewDecoder(resp.Body).Decode(&tq); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := fmt.Sprintf(`"trace_id":%d`, tq.Trace.TraceID)
		if !strings.Contains(logged, want) {
			t.Errorf("worker logs missing %s for query %d", want, id)
		}
	}
	if !strings.Contains(logged, `"role":"worker"`) {
		t.Error("no worker-role structured log records")
	}

	if active, _ := srv.obs.T().Occupancy(); active != 0 {
		t.Fatalf("%d live traces leaked", active)
	}
}

// TestRecoveryTracePropagation kills a worker mid-query and asserts the
// episode shows up in the traces of the queries it delayed: a coherent
// span tree containing a barrier/recovery span, and a tracer ring that
// returns to baseline occupancy (no spans leaked by the restart path).
func TestRecoveryTracePropagation(t *testing.T) {
	defer faultpoint.Reset()
	o := obs.New(nil)
	eng, _ := recoverEngine(t, o)
	defer eng.Close()
	srv, err := New(Config{Backend: eng.Controller(), GraphID: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fired, disarm := faultpoint.KillOnce(faultpoint.WorkerSuperstep, 1)
	defer disarm()

	var wg sync.WaitGroup
	post := func(src, dst int64) {
		defer wg.Done()
		body, _ := json.Marshal(QueryRequest{Kind: "sssp", Source: src, Target: &dst, NoCache: true})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("query: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("query %d->%d: HTTP %d", src, dst, resp.StatusCode)
		}
	}
	for wave := 0; wave < 3; wave++ {
		for i := int64(0); i < 4; i++ {
			wg.Add(1)
			go post(i, 31-i)
		}
		time.Sleep(15 * time.Millisecond)
	}
	wg.Wait()
	select {
	case <-fired:
	default:
		t.Fatal("fault point never fired")
	}

	// Every request returned, so every trace must be finished: ring back
	// to baseline (zero live), completed traces retained for inspection.
	waitFor(t, func() bool {
		active, _ := o.T().Occupancy()
		return active == 0
	})
	_, completed := o.T().Occupancy()
	if completed == 0 || completed > obs.DefaultTraceRing {
		t.Fatalf("completed ring holds %d traces, want (0, %d]", completed, obs.DefaultTraceRing)
	}

	resp, err := http.Get(ts.URL + "/traces?slowest=50")
	if err != nil {
		t.Fatal(err)
	}
	var views []tracedQuery
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	recoveryTraces := 0
	for _, v := range views {
		if !v.Trace.Complete {
			t.Fatalf("trace %d served by /traces is not complete", v.Trace.TraceID)
		}
		// No span leaks: a completed trace must not carry open spans. The
		// superstep round aborted by the recovery restart is the
		// regression this guards — its reports never arrive, so only the
		// restart path can close its span.
		var walk func(s obs.SpanView)
		walk = func(s obs.SpanView) {
			if s.Open {
				t.Fatalf("trace %d: span %q still open in a completed trace", v.Trace.TraceID, s.Name)
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(v.Trace.Root)
		var engine *obs.SpanView
		for i := range v.Trace.Root.Children {
			if v.Trace.Root.Children[i].Name == "engine" {
				engine = &v.Trace.Root.Children[i]
			}
		}
		if engine == nil {
			continue
		}
		for _, c := range engine.Children {
			if c.Name != "barrier/recovery" {
				continue
			}
			recoveryTraces++
			// Coherence: the episode span is a closed, positive-duration
			// region inside the engine span's window.
			if c.Open || c.DurationNS <= 0 {
				t.Fatalf("recovery span incoherent: %+v", c)
			}
			engEnd := engine.StartUnix + engine.DurationNS
			if c.StartUnix < engine.StartUnix || c.StartUnix+c.DurationNS > engEnd {
				t.Fatalf("recovery span [%d,+%d] outside engine span [%d,+%d]",
					c.StartUnix, c.DurationNS, engine.StartUnix, engine.DurationNS)
			}
			break
		}
	}
	if recoveryTraces == 0 {
		t.Fatal("no trace carries a barrier/recovery span despite a recovery episode")
	}
	t.Logf("recovery episode attributed in %d of %d traces", recoveryTraces, len(views))
}

// TestInboundTraceAndNodeHeaders: a /query carrying X-QGraph-Trace-ID
// keeps its spans under the caller's ID — echoed in the response header
// and body, fetchable at /trace/by-id/{id} — and the node identifies
// itself via X-QGraph-Node on every response.
func TestInboundTraceAndNodeHeaders(t *testing.T) {
	b := newStubBackend()
	_, ts := newTestServer(t, b, func(c *Config) { c.NodeID = "node-1"; c.Role = "replica" })

	body, _ := json.Marshal(QueryRequest{Kind: "bfs", Source: 1, NoCache: true})
	req, _ := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
	req.Header.Set(TraceHeader, "424242")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != "424242" {
		t.Fatalf("trace header %q, want the inbound 424242", got)
	}
	if qr.TraceID != 424242 {
		t.Fatalf("body trace_id %d, want 424242", qr.TraceID)
	}
	if got := resp.Header.Get(NodeHeader); got != "node-1/replica" {
		t.Fatalf("node header %q, want node-1/replica", got)
	}

	// The trace is fetchable under the propagated ID.
	var tq tracedQuery
	resp2, err := http.Get(ts.URL + "/trace/by-id/424242")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/by-id/424242: %d", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&tq); err != nil {
		t.Fatal(err)
	}
	if tq.Trace.TraceID != 424242 || tq.Trace.Root.Name != "query" {
		t.Fatalf("by-id trace %+v, want the propagated query trace", tq.Trace)
	}

	// Without the header the node assigns its own nonzero ID and echoes it.
	code, qr2, hdr := postQuery(t, ts.URL, QueryRequest{Kind: "bfs", Source: 2, NoCache: true})
	if code != http.StatusOK || qr2.TraceID == 0 {
		t.Fatalf("untraced-header query: code %d trace_id %d", code, qr2.TraceID)
	}
	if got := hdr.Get(TraceHeader); got != fmt.Sprint(qr2.TraceID) {
		t.Fatalf("echoed id %q != body id %d", got, qr2.TraceID)
	}
}
