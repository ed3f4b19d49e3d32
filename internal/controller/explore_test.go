package controller

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// TestImplicitReleaseEveryOrder enumerates, depth first, every order in
// which the per-link FIFO queues of a controller and two workers can
// deliver one BFS of four supersteps: 0 on worker 0 alone, 1 on both
// workers by the controller's release, 2 on both by their own, and 3 on
// worker 0 alone, which the run narrowed to. Each event is a link's head
// delivered or a worker running a queued superstep; the controller's round
// and the workers' barrier machines run on the sim's nodes, with no
// transport. Orders that reach one state are continued once. Three
// variants: as is; with a cancel (a QueryFinish broadcast) injected at
// every point where the query is active; and with worker 1's summary of
// superstep 1 lost on its way to worker 0. In every order the conformance
// checks hold (each superstep is released once, explicitly or by the
// decision the workers share with the controller, never both, and runs
// with its Expect batches; each event sends exactly the report it owes,
// and each superstep is reported once), and:
//   - as is, the query converges after 4 supersteps with the reference's
//     answer, superstep 2 released implicitly on both workers and 3 on
//     worker 0 alone, and the controller hears one report a worker for
//     supersteps 1 and 2: worker 1 is quiescent after 2, and worker 0
//     reports both once the decision on 2 narrows the run;
//   - cancelled, it ends cancelled unless it ended first;
//   - with the summary lost, worker 0 never decides superstep 1 and never
//     reports it: the controller collects nothing after superstep 0.
//
// As is, the walk must meet the three races of a deferred report: worker
// 0's report on 1 and 2 made due by worker 1's summary of 2 as it arrives,
// and by worker 0's own summary of 2 when worker 1's came first; and
// worker 0's report on 3 reaching the controller before 2 is collected.
func TestImplicitReleaseEveryOrder(t *testing.T) {
	for _, v := range []exploreVariant{{}, {cancel: true}, {lose: true}} {
		t.Run(v.String(), func(t *testing.T) {
			e := &explorer{v: v, seen: make(map[uint64]bool)}
			if _, err := e.dfs(nil, nil); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d orders, %d states", e.orders, len(e.seen))
			if e.orders == 0 {
				t.Fatal("no order explored")
			}
			if !v.cancel && !v.lose && (!e.byPeer || !e.byOwn || !e.aheadReport) {
				t.Fatalf("races met: report due by the peer's summary %v, by the own %v, report ahead of the collection %v",
					e.byPeer, e.byOwn, e.aheadReport)
			}
		})
	}
}

type exploreVariant struct{ cancel, lose bool }

func (v exploreVariant) String() string {
	switch {
	case v.cancel:
		return "cancel"
	case v.lose:
		return "lost-summary"
	}
	return "plain"
}

// explorer walks the orders of one variant: seen holds the states
// (exploreRun.key) already expanded.
type explorer struct {
	v      exploreVariant
	seen   map[uint64]bool
	orders int
	// The races some order met.
	byPeer, byOwn, aheadReport bool
}

// choice is one event of an order: a link's head, a worker's superstep
// (link -1), or the cancel (link -2).
type choice struct{ link, w int }

const (
	stepChoice   = -1
	cancelChoice = -2
)

// exploreRun is one order under way.
type exploreRun struct {
	*conformanceRun
	e         *explorer
	cancelled bool
	moved     bool // the last event changed something
}

// dfs expands the order prefix, which r reached (nil: replay prefix on
// fresh nodes): unless its state was expanded before, it expands each
// enabled event, the last on r itself, or checks the end state if none
// changes anything. It says whether prefix's last event changed anything.
func (e *explorer) dfs(prefix []choice, r *exploreRun) (moved bool, err error) {
	if r == nil {
		if r, err = e.replay(prefix); err != nil {
			return false, fmt.Errorf("order %v: %w", prefix, err)
		}
	}
	if e.seen[r.key()] {
		return r.moved, nil
	}
	e.seen[r.key()] = true
	leaf := true
	next := r.enabled(e.v)
	for i, c := range next {
		child := append(prefix[:len(prefix):len(prefix)], c)
		var on *exploreRun
		if i == len(next)-1 {
			if err := r.take(c); err != nil {
				return false, fmt.Errorf("order %v: %w", child, err)
			}
			on = r
		}
		moved, err := e.dfs(child, on)
		if err != nil {
			return false, err
		}
		leaf = leaf && !moved
	}
	if leaf {
		e.orders++
		if err := r.end(e.v); err != nil {
			return false, fmt.Errorf("order %v: %w", prefix, err)
		}
	}
	return true, nil
}

// replay builds the nodes and takes the choices of prefix in order.
func (e *explorer) replay(prefix []choice) (*exploreRun, error) {
	// 0→1 and 0→2 on worker 0 alone, then 1→4 and 2→3 across, then 4→6
	// on worker 0 alone while 3, on worker 1, is a sink.
	b := graph.NewBuilder(7)
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 4}, {2, 3}, {4, 6}} {
		b.AddEdge(e[0], e[1], 1)
	}
	s, err := newSim(nil, b.MustBuild(), partition.Assignment{0, 1, 0, 1, 0, 0, 0}, 2, nil)
	if err != nil {
		return nil, err
	}
	s.quiet = true
	spec := query.Spec{ID: 1, Kind: query.KindBFS, Source: 0, Target: graph.NilVertex}
	r := &exploreRun{e: e, conformanceRun: newConformanceRun(conformanceRow{k: 2, mode: SyncHybrid, kind: query.KindBFS}, nil, s)}
	r.specs, r.results = []query.Spec{spec}, []chan Result{make(chan Result, 1)}
	s.observe = func(w partition.WorkerID) error {
		if e.v.lose {
			r.lose()
		}
		// Worker 0's report on supersteps 1 and 2, in a superstep or as a
		// summary arrives.
		for _, m := range s.net.sent {
			if m, ok := m.(*protocol.BarrierSynch); ok && w == 0 && m.FromStep == 1 && m.Step == 2 {
				e.byPeer = e.byPeer || r.handing != nil
				e.byOwn = e.byOwn || r.handing == nil
			}
		}
		return r.observe(w)
	}
	s.c.onSchedule(scheduleReq{spec: spec, ch: r.results[0]})
	for _, c := range prefix {
		if err := r.take(c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// take runs choice c.
func (r *exploreRun) take(c choice) error {
	s := r.s
	s.net.sent = s.net.sent[:0]
	r.moved = true
	switch c.link {
	case cancelChoice:
		r.cancelled = true
		return s.c.step(cancelReq(1))
	case stepChoice:
		ran, err := s.workers[c.w].Step()
		s.idle[c.w], r.moved = !ran, ran
		if err != nil {
			return err
		}
		return s.observed(partition.WorkerID(c.w))
	}
	err := s.deliver(c.link)
	if ctl := s.c.queries[1]; ctl != nil {
		for _, queued := range ctl.reports {
			r.e.aheadReport = r.e.aheadReport || slices.ContainsFunc(queued, func(m *protocol.BarrierSynch) bool { return m.FromStep > ctl.step+1 })
		}
	}
	return err
}

// enabled lists the events that can come next: each link's head, the
// superstep of each worker not idle (the sim's flag: Step found nothing
// queued and no message came since), and the cancel once, while the query
// is active. A superstep that finds nothing queued leaves the state as it
// was, so it is not a branch.
func (r *exploreRun) enabled(v exploreVariant) []choice {
	var cs []choice
	for i, l := range r.s.net.links {
		if len(l) > 0 {
			cs = append(cs, choice{link: i})
		}
	}
	for w := range r.s.workers {
		if !r.s.idle[w] {
			cs = append(cs, choice{link: stepChoice, w: w})
		}
	}
	if v.cancel && !r.cancelled && len(r.s.c.queries) > 0 {
		cs = append(cs, choice{link: cancelChoice})
	}
	return cs
}

// typeFields caches stateHash.fields across states.
var typeFields = map[reflect.Type][]int{}

// key identifies the state the order reached: the nodes' machines, the
// links and what the checks remember. Orders that reach one state from
// different histories share their futures, so each state is expanded once.
// The sim's idle flags are left out: a worker is idle only with nothing
// queued, so a flag differs only in a superstep that changes nothing.
func (r *exploreRun) key() uint64 {
	h := stateHash{fields: typeFields}
	h.value(reflect.ValueOf(r.s.c).Elem().FieldByName("queries"))
	for _, w := range r.s.workers {
		for _, f := range []string{"bar", "queries", "finished", "outBuf"} {
			h.value(reflect.ValueOf(w).Elem().FieldByName(f))
		}
	}
	h.value(reflect.ValueOf(r.s.net.links))
	c := r.conformanceRun
	for _, m := range []any{c.releases, c.implicitly, c.batches, c.sums, c.heard, c.ran, c.reported, c.owes, c.under, c.explicit, c.gone,
		c.ended, len(c.results[0]), r.cancelled} {
		h.value(reflect.ValueOf(m))
	}
	return h.sum
}

// stateHash folds a value, everything reachable from it included, into
// sum. Map entries and a worker table's entries fold in any order; a
// table's probe slots, a query's graph view, a Worker's free lists,
// channels, spans and the clock's readings (the sim's clock stands still)
// are not state a future event reads differently.
type stateHash struct {
	sum    uint64
	fields map[reflect.Type][]int // the fields of a struct type that fold
}

func (h *stateHash) value(v reflect.Value) { h.sum = mix(h.sum, h.of(v)) }

// mix is one round of splitmix64 over a and b.
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

var (
	timeType  = reflect.TypeFor[time.Time]()
	skipField = map[string]bool{"view": true, "tables": true, "scratch": true, "ch": true,
		"trace": true, "engSpan": true, "stepSpan": true, "slots": true, "gen": true, "shift": true}
)

func (h *stateHash) of(v reflect.Value) uint64 {
	x := uint64(v.Kind())
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			x = mix(x, 1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x = mix(x, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x = mix(x, v.Uint())
	case reflect.Float32, reflect.Float64:
		x = mix(x, math.Float64bits(v.Float()))
	case reflect.String:
		for _, c := range []byte(v.String()) {
			x = mix(x, uint64(c))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			x = mix(x, h.of(v.Elem()))
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			x = mix(x, h.of(v.Index(i)))
		}
	case reflect.Map:
		var set uint64
		for it := v.MapRange(); it.Next(); {
			set += mix(h.of(it.Key()), h.of(it.Value()))
		}
		x = mix(x, set)
	case reflect.Struct:
		t := v.Type()
		if t == timeType {
			break
		}
		fs, ok := h.fields[t]
		if !ok {
			for i := range t.NumField() {
				if !skipField[t.Field(i).Name] {
					fs = append(fs, i)
				}
			}
			h.fields[t] = fs
		}
		if t.Name() == "table" { // a worker table: its entries, in any order
			keys, vals := v.Field(fs[0]), v.Field(fs[1])
			var set uint64
			for i := range keys.Len() {
				set += mix(h.of(keys.Index(i)), h.of(vals.Index(i)))
			}
			x = mix(x, set)
			break
		}
		for _, i := range fs {
			x = mix(x, h.of(v.Field(i)))
		}
	}
	return x
}

// lose drops worker 1's summary of superstep 1 from its link to worker 0.
func (r *exploreRun) lose() {
	i := int(protocol.WorkerNode(1))*r.s.net.n + int(protocol.WorkerNode(0))
	l := r.s.net.links[i]
	for j, m := range l {
		if vb, ok := m.Msg.(*protocol.VertexBatch); ok && vb.Summary != nil && vb.Step == 1 {
			r.s.net.links[i] = append(l[:j:j], l[j+1:]...)
			return
		}
	}
}

// end checks an order that has nothing left to do.
func (r *exploreRun) end(v exploreVariant) error {
	var res *Result
	select {
	case got := <-r.results[0]:
		res = &got
	default:
	}
	switch {
	case v.lose:
		ctl := r.s.c.queries[1]
		if res != nil || ctl == nil || !ctl.outstanding || ctl.step != 0 || r.reported[wqs{0, 1, 1}] {
			return fmt.Errorf("with a summary lost: result %+v, round %+v", res, ctl)
		}
		return nil
	case res == nil:
		return fmt.Errorf("the query never ended (%d active)", len(r.s.c.queries))
	case r.cancelled && res.Reason == protocol.FinishCancelled:
		return nil
	case res.Reason != protocol.FinishConverged || res.Supersteps != 4:
		return fmt.Errorf("ended %v after %d supersteps, want %v after 4", res.Reason, res.Supersteps, protocol.FinishConverged)
	}
	r.results[0] <- *res
	if err := r.answers(); err != nil {
		return err
	}
	for w := range partition.WorkerID(2) {
		if !r.implicitly[wqs{w, 1, 2}] {
			return fmt.Errorf("worker %d's superstep 2 was not released implicitly", w)
		}
	}
	if rel := r.releases[wqs{0, 1, 3}]; !r.implicitly[wqs{0, 1, 3}] || len(rel.Peers) != 1 || r.releases[wqs{1, 1, 3}] != nil {
		return fmt.Errorf("superstep 3 was not released implicitly to worker 0 alone: %+v", rel)
	}
	return nil
}
