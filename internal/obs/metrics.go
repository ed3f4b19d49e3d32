package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float instrument.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindGaugeFunc
)

type series struct {
	labels  string // rendered label set without braces, e.g. `kind="sssp"`
	kind    seriesKind
	counter *Counter
	gauge   *Gauge
	fn      func() float64
}

type family struct {
	name   string
	help   string
	typ    string // counter | gauge
	series []*series
}

// Registry is a hand-rolled Prometheus-text-format metric registry. All
// register calls are idempotent on (name, labels): re-registering
// returns the existing instrument, so layers can share instruments
// without coordination.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) fam(name, help, typ string) *family {
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) find(labels string) *series {
	for _, s := range f.series {
		if s.labels == labels {
			return s
		}
	}
	return nil
}

// Counter registers (or returns the existing) counter name{labels}.
// labels is a rendered Prometheus label set without braces ("" for
// none), e.g. `worker="2"`.
func (r *Registry) Counter(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "counter")
	if s := f.find(labels); s != nil {
		return s.counter
	}
	c := &Counter{}
	f.series = append(f.series, &series{labels: labels, kind: kindCounter, counter: c})
	return c
}

// Gauge registers (or returns the existing) gauge name{labels}.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "gauge")
	if s := f.find(labels); s != nil {
		return s.gauge
	}
	g := &Gauge{}
	f.series = append(f.series, &series{labels: labels, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — the mechanism that lets /metrics report the exact same state
// /stats serializes, so the two cannot drift. Re-registering an
// existing (name, labels) series is a no-op: the first fn wins, so a
// second Server sharing the registry cannot silently re-point a series
// at its own state, and a published series is never mutated (scrapes
// read series fields without the lock).
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "gauge")
	if f.find(labels) != nil {
		return
	}
	f.series = append(f.series, &series{labels: labels, kind: kindGaugeFunc, fn: fn})
}

// CounterFunc registers a counter read from fn at scrape time (the
// source must be monotonic; used to mirror existing atomic counters).
// Like GaugeFunc, re-registration is a no-op — first fn wins.
func (r *Registry) CounterFunc(name, labels, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "counter")
	if f.find(labels) != nil {
		return
	}
	f.series = append(f.series, &series{labels: labels, kind: kindGaugeFunc, fn: fn})
}

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	// Snapshot families AND their series slices under the lock: a
	// registration racing a scrape appends to f.series, which would be a
	// data race on the slice header if the scrape iterated it unlocked.
	// The *series pointees themselves are immutable once published
	// (instrument values are atomics; func re-registration is a no-op),
	// so rendering outside the lock is safe — and fn() callbacks read
	// engine state without holding the registry lock.
	r.mu.Lock()
	fams := make([]family, 0, len(r.order))
	for _, name := range r.order {
		f := r.fams[name]
		fams = append(fams, family{
			name:   f.name,
			help:   f.help,
			typ:    f.typ,
			series: append([]*series(nil), f.series...),
		})
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch s.kind {
			case kindCounter:
				writeSample(w, f.name, s.labels, strconv.FormatInt(s.counter.Value(), 10))
			case kindGauge:
				writeSample(w, f.name, s.labels, fmtFloat(s.gauge.Value()))
			case kindGaugeFunc:
				writeSample(w, f.name, s.labels, fmtFloat(s.fn()))
			}
		}
	}
}
