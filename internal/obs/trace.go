// Package obs is the engine's zero-dependency observability substrate:
// per-query tracing (span trees kept in a bounded ring), a hand-rolled
// Prometheus-text-format metrics registry, and structured-logging
// construction helpers. Every entry point is nil-receiver safe so
// instrumentation call sites stay unconditional — an engine built without
// an Obs handle pays only a nil check.
package obs

import (
	"maps"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Span is one timed region of a trace. Spans form a tree under the
// trace's root; a span is mutated only through its methods, which lock
// the owning trace (spans are touched from the serving goroutine and the
// controller event loop concurrently).
type Span struct {
	name     string
	start    time.Time
	end      time.Time // zero while open
	attrs    map[string]any
	children []*Span
	tr       *Trace
}

// End closes the span now. Ending an already-ended span keeps the first
// end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// EndAt closes the span at t (for callers that already measured).
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	s.tr.mu.Unlock()
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = val
	s.tr.mu.Unlock()
}

// Trace is one query's span tree. A trace is created by the serving
// layer at admission, bound to the query ID so the controller can attach
// engine-side spans, and finished (moved into the tracer's ring) when
// the response is delivered.
type Trace struct {
	id      uint64
	queryID int64

	mu   sync.Mutex
	root *Span
	done bool
}

// ID returns the trace's process-unique ID (propagated on the wire via
// query.Spec.TraceID).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// QueryID returns the query the trace is bound to (0 before binding).
func (t *Trace) QueryID() int64 {
	if t == nil {
		return 0
	}
	return t.queryID
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a child span under parent (nil parent = root) starting
// now.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	return t.SpanAt(parent, name, time.Now(), time.Time{}, nil)
}

// SpanAt attaches a span with explicit bounds: a zero end leaves it
// open, a non-zero end records an already-measured region
// retroactively. Attaching to a finished trace is permitted (late
// engine-side spans after a client timeout); the tracer has already
// snapshotted nothing — views are built on read.
func (t *Trace) SpanAt(parent *Span, name string, start, end time.Time, attrs map[string]any) *Span {
	if t == nil {
		return nil
	}
	s := &Span{name: name, start: start, end: end, attrs: attrs, tr: t}
	t.mu.Lock()
	if parent == nil {
		parent = t.root
	}
	if parent != nil {
		parent.children = append(parent.children, s)
	}
	t.mu.Unlock()
	return s
}

// SpanView is the JSON shape of one span.
type SpanView struct {
	Name       string         `json:"name"`
	StartUnix  int64          `json:"start_unix_ns"`
	DurationNS int64          `json:"duration_ns"`
	DurationMS float64        `json:"duration_ms"`
	Open       bool           `json:"open,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanView     `json:"children,omitempty"`
}

// TraceView is the JSON shape of a whole trace, as served by
// GET /trace/{query_id} and GET /traces.
type TraceView struct {
	TraceID    uint64   `json:"trace_id"`
	QueryID    int64    `json:"query_id"`
	DurationMS float64  `json:"duration_ms"`
	Complete   bool     `json:"complete"`
	Root       SpanView `json:"root"`
}

// View snapshots the trace into its JSON shape. Open spans report
// duration up to now.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{TraceID: t.id, QueryID: t.queryID, Complete: t.done}
	if t.root != nil {
		v.Root = viewSpan(t.root, now)
		v.DurationMS = v.Root.DurationMS
	}
	return v
}

func viewSpan(s *Span, now time.Time) SpanView {
	end := s.end
	open := end.IsZero()
	if open {
		end = now
	}
	d := end.Sub(s.start)
	if d < 0 {
		d = 0
	}
	v := SpanView{
		Name:       s.name,
		StartUnix:  s.start.UnixNano(),
		DurationNS: int64(d),
		DurationMS: float64(d) / float64(time.Millisecond),
		Open:       open,
		// Copied, not aliased: callers JSON-encode the view after t.mu is
		// released, while SetAttr keeps mutating the live map (late spans
		// and attrs are permitted on finished traces).
		Attrs: maps.Clone(s.attrs),
	}
	for _, c := range s.children {
		v.Children = append(v.Children, viewSpan(c, now))
	}
	return v
}

// Tracer owns the live traces and the bounded ring of completed ones.
type Tracer struct {
	mu      sync.Mutex
	nextID  uint64
	byQuery map[int64]*Trace // active traces, by bound query ID
	// Completed traces, a circular buffer: insertion overwrites the
	// oldest slot in O(1). A straight slice-shift eviction costs a
	// cap-sized pointer copy (plus its GC write barriers) on every
	// finished request once the ring fills — measurable on the cache-hit
	// fast path.
	ring []*Trace
	next int // next write index
	n    int // filled slots, ≤ len(ring)
}

// DefaultTraceRing bounds how many completed traces are retained.
const DefaultTraceRing = 512

// NewTracer builds a tracer retaining up to capacity completed traces
// (<=0 selects DefaultTraceRing). The ID sequence starts at a random
// point: trace IDs cross process boundaries (a caller propagates one to
// the node that serves the request), so two processes counting from zero
// would collide on every ID.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &Tracer{
		nextID:  rand.Uint64(),
		byQuery: make(map[int64]*Trace),
		ring:    make([]*Trace, capacity),
	}
}

// completed appends to views (or collects traces via visit) the ring's
// contents oldest-first. Callers hold tr.mu.
func (tr *Tracer) completed(visit func(*Trace)) {
	for i := 0; i < tr.n; i++ {
		visit(tr.ring[(tr.next-tr.n+i+len(tr.ring))%len(tr.ring)])
	}
}

// Begin starts a new trace whose root span is named name.
func (tr *Tracer) Begin(name string) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.nextID++
	if tr.nextID == 0 { // 0 means "no trace" on the wire
		tr.nextID++
	}
	id := tr.nextID
	tr.mu.Unlock()
	t := &Trace{id: id}
	t.root = &Span{name: name, start: time.Now(), tr: t}
	return t
}

// BeginWithID starts a trace under a caller-supplied ID — the inbound
// half of cross-process propagation: a node honoring a caller's
// X-QGraph-Trace-ID keeps its spans under the originator's ID so the
// two trees stitch into one. A zero ID falls back to Begin.
func (tr *Tracer) BeginWithID(name string, id uint64) *Trace {
	if tr == nil {
		return nil
	}
	if id == 0 {
		return tr.Begin(name)
	}
	t := &Trace{id: id}
	t.root = &Span{name: name, start: time.Now(), tr: t}
	return t
}

// BindQuery indexes the trace under query ID q so engine-side code
// (controller) can attach spans via ByQuery. A later trace bound to the
// same query ID displaces the earlier binding.
func (tr *Tracer) BindQuery(q int64, t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	t.queryID = q
	t.mu.Unlock()
	tr.mu.Lock()
	tr.byQuery[q] = t
	tr.mu.Unlock()
}

// ByQuery returns the active (unfinished) trace bound to query q, or
// nil.
func (tr *Tracer) ByQuery(q int64) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.byQuery[q]
}

// Finish closes the trace's root span, unbinds it, and moves it into
// the completed ring (evicting the oldest when full). Finishing twice is
// a no-op.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	if t.root != nil && t.root.end.IsZero() {
		t.root.end = time.Now()
	}
	q := t.queryID
	t.mu.Unlock()

	tr.mu.Lock()
	if tr.byQuery[q] == t {
		delete(tr.byQuery, q)
	}
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	if tr.n < len(tr.ring) {
		tr.n++
	}
	tr.mu.Unlock()
}

// Get returns the newest completed trace for query q, falling back to a
// live view of an active trace.
func (tr *Tracer) Get(q int64) (TraceView, bool) {
	if tr == nil {
		return TraceView{}, false
	}
	tr.mu.Lock()
	var hit *Trace // newest completed match wins: oldest-first walk, last assignment
	tr.completed(func(t *Trace) {
		if t.queryID == q {
			hit = t
		}
	})
	if hit == nil {
		hit = tr.byQuery[q]
	}
	tr.mu.Unlock()
	if hit == nil {
		return TraceView{}, false
	}
	return hit.View(), true
}

// GetByTraceID returns the newest trace carrying the given trace ID,
// preferring completed traces and falling back to a live view of an
// active one. This is the lookup a caller's stitching fetch uses: it
// knows the propagated trace ID, not the node-local query ID.
func (tr *Tracer) GetByTraceID(id uint64) (TraceView, bool) {
	if tr == nil || id == 0 {
		return TraceView{}, false
	}
	tr.mu.Lock()
	var hit *Trace // newest completed match wins: oldest-first walk, last assignment
	tr.completed(func(t *Trace) {
		if t.id == id {
			hit = t
		}
	})
	if hit == nil {
		for _, t := range tr.byQuery {
			if t.id == id {
				hit = t
				break
			}
		}
	}
	tr.mu.Unlock()
	if hit == nil {
		return TraceView{}, false
	}
	return hit.View(), true
}

// Slowest returns views of the n slowest completed traces, slowest
// first (n<=0 selects 10).
func (tr *Tracer) Slowest(n int) []TraceView {
	if tr == nil {
		return nil
	}
	if n <= 0 {
		n = 10
	}
	tr.mu.Lock()
	all := make([]*Trace, 0, tr.n)
	tr.completed(func(t *Trace) { all = append(all, t) })
	tr.mu.Unlock()
	views := make([]TraceView, 0, len(all))
	for _, t := range all {
		views = append(views, t.View())
	}
	sort.Slice(views, func(i, j int) bool { return views[i].DurationMS > views[j].DurationMS })
	if len(views) > n {
		views = views[:n]
	}
	return views
}

// Occupancy reports how many traces are live (bound, unfinished) and
// how many sit in the completed ring — the leak check tests assert on.
func (tr *Tracer) Occupancy() (active, completed int) {
	if tr == nil {
		return 0, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.byQuery), tr.n
}

// PhaseShare is one row of a phase-attribution breakdown.
type PhaseShare struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
	Fraction   float64 `json:"fraction"`
}

// Attribute breaks a trace's end-to-end duration down by phase: leaf
// spans are attributed in full, interior spans contribute their
// self-time (duration not covered by children, floored at zero). Rows
// come back sorted by descending share of the root duration.
func Attribute(v TraceView) []PhaseShare {
	acc := make(map[string]float64)
	var walk func(s SpanView)
	walk = func(s SpanView) {
		var covered float64
		for _, c := range s.Children {
			covered += c.DurationMS
			walk(c)
		}
		self := s.DurationMS - covered
		if len(s.Children) == 0 {
			self = s.DurationMS
		}
		if self > 0 {
			acc[s.Name] += self
		}
	}
	for _, c := range v.Root.Children {
		walk(c)
	}
	// Anything under the root not covered by a child span is slack
	// (scheduling gaps between phases).
	var covered float64
	for _, c := range v.Root.Children {
		covered += c.DurationMS
	}
	if slack := v.Root.DurationMS - covered; slack > 0 {
		acc["(untracked)"] += slack
	}
	out := make([]PhaseShare, 0, len(acc))
	for name, ms := range acc {
		row := PhaseShare{Name: name, DurationMS: ms}
		if v.Root.DurationMS > 0 {
			row.Fraction = ms / v.Root.DurationMS
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurationMS != out[j].DurationMS {
			return out[i].DurationMS > out[j].DurationMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
