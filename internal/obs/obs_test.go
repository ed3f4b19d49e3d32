package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(4)
	tc := tr.Begin("query")
	tr.BindQuery(42, tc)
	if got := tr.ByQuery(42); got != tc {
		t.Fatalf("ByQuery = %p, want %p", got, tc)
	}
	adm := tc.StartSpan(nil, "admission")
	time.Sleep(2 * time.Millisecond)
	adm.End()
	eng := tc.StartSpan(nil, "engine")
	step := tc.StartSpan(eng, "superstep 0")
	step.SetAttr("processed", 7)
	base := time.Now()
	tc.SpanAt(step, "worker 1", base, base.Add(time.Millisecond), map[string]any{"sent": 3})
	step.End()
	eng.End()
	tr.Finish(tc)

	v, ok := tr.Get(42)
	if !ok {
		t.Fatal("Get(42) missed after Finish")
	}
	if !v.Complete || v.QueryID != 42 || v.TraceID != tc.ID() {
		t.Fatalf("bad view header: %+v", v)
	}
	if len(v.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(v.Root.Children))
	}
	stepV := v.Root.Children[1].Children[0]
	if stepV.Name != "superstep 0" || stepV.Attrs["processed"] != 7 {
		t.Fatalf("bad superstep span: %+v", stepV)
	}
	if len(stepV.Children) != 1 || stepV.Children[0].Name != "worker 1" {
		t.Fatalf("bad worker child: %+v", stepV.Children)
	}
	if v.Root.Children[0].DurationMS <= 0 {
		t.Fatal("admission span has no duration")
	}
	if active, done := tr.Occupancy(); active != 0 || done != 1 {
		t.Fatalf("occupancy = (%d,%d), want (0,1)", active, done)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 10; i++ {
		tc := tr.Begin("q")
		tr.BindQuery(int64(i), tc)
		tr.Finish(tc)
	}
	if active, done := tr.Occupancy(); active != 0 || done != 3 {
		t.Fatalf("occupancy = (%d,%d), want (0,3)", active, done)
	}
	if _, ok := tr.Get(0); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if _, ok := tr.Get(9); !ok {
		t.Fatal("newest trace missing")
	}
	if got := len(tr.Slowest(100)); got != 3 {
		t.Fatalf("Slowest returned %d, want 3", got)
	}
}

func TestTracerDoubleFinishAndNilSafety(t *testing.T) {
	tr := NewTracer(2)
	tc := tr.Begin("q")
	tr.BindQuery(1, tc)
	tr.Finish(tc)
	tr.Finish(tc)
	if _, done := tr.Occupancy(); done != 1 {
		t.Fatal("double Finish duplicated ring entry")
	}

	// Every entry point must tolerate nil receivers.
	var nilTr *Tracer
	var nilT *Trace
	var nilS *Span
	nilTr.Finish(nilTr.Begin("x"))
	nilTr.BindQuery(1, nil)
	if _, ok := nilTr.Get(1); ok {
		t.Fatal("nil tracer Get returned ok")
	}
	nilT.StartSpan(nil, "x").End()
	nilT.SpanAt(nil, "x", time.Now(), time.Now(), nil)
	nilS.End()
	nilS.SetAttr("k", 1)
	_ = nilT.View()
	var o *Obs
	o.Log().Info("discarded")
	o.M().Counter("x", "", "").Inc()
	o.T().Begin("x")
}

// TestTraceViewConcurrentWithSetAttr JSON-encodes views of a trace
// while another goroutine keeps mutating span attrs — the GET /trace
// shape: handlers marshal after the trace lock is released, so views
// must copy attr maps, not alias them. Run under -race this catches
// the concurrent map read/write that crashed the daemon.
func TestTraceViewConcurrentWithSetAttr(t *testing.T) {
	tr := NewTracer(4)
	tc := tr.Begin("query")
	tr.BindQuery(1, tc)
	sp := tc.StartSpan(nil, "engine")
	tr.Finish(tc) // finished traces still accept late attrs/spans

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp.SetAttr("step", i)
			tc.Root().SetAttr("late", i)
		}
	}()
	for i := 0; i < 500; i++ {
		v, ok := tr.Get(1)
		if !ok {
			t.Error("trace lost mid-run")
			break
		}
		if err := json.NewEncoder(io.Discard).Encode(v); err != nil {
			t.Errorf("encode: %v", err)
			break
		}
	}
	close(stop)
	<-done
}

func TestAttribute(t *testing.T) {
	tr := NewTracer(1)
	tc := tr.Begin("query")
	tr.BindQuery(7, tc)
	t0 := time.Now()
	tc.SpanAt(nil, "admission", t0, t0.Add(10*time.Millisecond), nil)
	eng := tc.SpanAt(nil, "engine", t0.Add(10*time.Millisecond), t0.Add(100*time.Millisecond), nil)
	tc.SpanAt(eng, "superstep 0", t0.Add(10*time.Millisecond), t0.Add(70*time.Millisecond), nil)
	tc.SpanAt(eng, "barrier/quiesce", t0.Add(70*time.Millisecond), t0.Add(100*time.Millisecond), nil)
	tc.Root().EndAt(t0.Add(100 * time.Millisecond))
	tr.Finish(tc)

	v, _ := tr.Get(7)
	rows := Attribute(v)
	got := make(map[string]float64)
	for _, r := range rows {
		got[r.Name] = r.DurationMS
	}
	if math.Abs(got["superstep 0"]-60) > 0.01 || math.Abs(got["barrier/quiesce"]-30) > 0.01 ||
		math.Abs(got["admission"]-10) > 0.01 {
		t.Fatalf("bad attribution: %+v", rows)
	}
	// Engine span is fully covered by children: no self-time row.
	if _, ok := got["engine"]; ok {
		t.Fatalf("interior span leaked self-time: %+v", rows)
	}
	var total float64
	for _, r := range rows {
		total += r.Fraction
	}
	if math.Abs(total-1) > 0.001 {
		t.Fatalf("fractions sum to %v, want 1", total)
	}
	if rows[0].Name != "superstep 0" {
		t.Fatalf("rows not sorted by share: %+v", rows)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("qgraph_test_total", "", "a counter")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if again := r.Counter("qgraph_test_total", "", "a counter"); again != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := r.Gauge("qgraph_test_gauge", `worker="2"`, "a gauge")
	g.Set(2.5)
	r.GaugeFunc("qgraph_test_fn", "", "func gauge", func() float64 { return 9 })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE qgraph_test_total counter",
		"qgraph_test_total 4",
		`qgraph_test_gauge{worker="2"} 2.5`,
		"qgraph_test_fn 9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	validatePrometheus(t, out)
}

// validatePrometheus checks text-exposition well-formedness: every
// non-comment line is `name{labels} value` and every sample's family has a
// preceding TYPE line.
func validatePrometheus(t *testing.T, text string) {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	typed := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		if _, ok := typed[m[1]]; !ok {
			t.Fatalf("sample %q has no TYPE line", line)
		}
		if _, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64); err != nil && m[3] != "NaN" {
			t.Fatalf("bad value in %q", line)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("qgraph_conc_total", "", "x")
			g := r.Gauge("qgraph_conc_gauge", fmt.Sprintf(`w="%d"`, i%2), "x")
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("qgraph_conc_total", "", "x").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	validatePrometheus(t, buf.String())
}

// TestRegistryScrapeDuringRegistration races WritePrometheus against
// ongoing registrations (a second Server or core.Start sharing the
// registry after traffic begins): the scrape must snapshot series
// slices under the lock, not iterate them while registration appends.
func TestRegistryScrapeDuringRegistration(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Gauge("qgraph_scrape_race_gauge", fmt.Sprintf(`w="%d"`, i), "x").Set(float64(i))
			r.GaugeFunc("qgraph_scrape_race_fn", fmt.Sprintf(`w="%d"`, i), "x", func() float64 { return 1 })
		}
	}()
	for i := 0; i < 200; i++ {
		r.WritePrometheus(io.Discard)
	}
	close(stop)
	<-done
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	validatePrometheus(t, buf.String())
}

// TestRegistryFuncFirstWins: re-registering a func-backed series must
// not re-point it (a second Server sharing the registry would silently
// hijack qgraph_cache_invalidations_total otherwise).
func TestRegistryFuncFirstWins(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("qgraph_fw_gauge", "", "x", func() float64 { return 1 })
	r.GaugeFunc("qgraph_fw_gauge", "", "x", func() float64 { return 2 })
	r.CounterFunc("qgraph_fw_total", "", "x", func() float64 { return 10 })
	r.CounterFunc("qgraph_fw_total", "", "x", func() float64 { return 20 })
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, "qgraph_fw_gauge 1\n") {
		t.Fatalf("gauge func re-registration won (want first):\n%s", out)
	}
	if !strings.Contains(out, "qgraph_fw_total 10\n") {
		t.Fatalf("counter func re-registration won (want first):\n%s", out)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "warn", true, "controller")
	l.Info("hidden")
	l.Warn("visible", "trace_id", uint64(77), "worker", 3)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatal("info leaked past warn level")
	}
	if !strings.Contains(out, `"trace_id":77`) || !strings.Contains(out, `"role":"controller"`) {
		t.Fatalf("missing structured fields: %s", out)
	}
	if ParseLevel("debug") != slog.LevelDebug || ParseLevel("bogus") != slog.LevelInfo {
		t.Fatal("ParseLevel mapping wrong")
	}
}
