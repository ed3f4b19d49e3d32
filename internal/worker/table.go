package worker

import (
	"fmt"

	"qgraph/internal/graph"
	"qgraph/internal/query"
)

// table is a hash table keyed by vertex, with values of type V. The worker
// keeps three kinds: a query's vertices (one vertex entry each, see
// vertices), each out buffer, and each scope signature (block → touched
// vertices; the counts are small integers, exact in a float64).
//
// Entries sit in insertion order in dense key and value slices, so a
// worker emits the same messages in the same order on every run. An
// open-addressing index finds them. Ranging costs the entries held and reset
// costs nothing, however large the table once grew: a slot is in use only
// while it carries the table's current generation. That is what lets one
// free list recycle every table with no size cap.
type table[V any] struct {
	keys  []graph.VertexID
	vals  []V
	slots []slot // linear probing; a power of two, at most half full
	gen   uint32 // ≥ 1; a slot of any other generation is free
	shift uint8  // 32 - log2(len(slots)), for the Fibonacci hash
}

type slot struct {
	key graph.VertexID
	gen uint32
	at  int32 // index of key in keys
}

func newTable[V any]() *table[V] {
	return &table[V]{slots: make([]slot, 16), gen: 1, shift: 32 - 4}
}

func (t *table[V]) home(v graph.VertexID) int { return int(uint32(v) * 0x9E3779B9 >> t.shift) }

// probe returns the slot holding v, or the free slot v would take.
func (t *table[V]) probe(v graph.VertexID) (i int, ok bool) {
	mask := len(t.slots) - 1
	for i = t.home(v); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen {
			return i, false
		} else if s.key == v {
			return i, true
		}
	}
}

func (t *table[V]) len() int { return len(t.keys) }

// ref returns the index of v's entry in keys and vals, in one probe,
// inserting a zero value for v if it held none. The index stays v's until
// v is deleted.
func (t *table[V]) ref(v graph.VertexID) (at int, had bool) {
	i, ok := t.probe(v)
	if ok {
		return int(t.slots[i].at), true
	}
	at = len(t.keys)
	t.slots[i] = slot{v, t.gen, int32(at)}
	t.keys = append(t.keys, v)
	t.vals = append(t.vals, *new(V))
	if 2*len(t.keys) > len(t.slots) {
		t.slots = make([]slot, 2*len(t.slots))
		t.shift--
		t.gen = 1
		for at, v := range t.keys {
			i, _ := t.probe(v)
			t.slots[i] = slot{v, t.gen, int32(at)}
		}
	}
	return at, false
}

// del removes v in O(1): the entries after its slot in the probe run shift
// back over the hole, and the last entry moves into its place in keys and
// vals. Ranging backwards over keys may delete the entry it visits.
func (t *table[V]) del(v graph.VertexID) {
	i, ok := t.probe(v)
	if !ok {
		return
	}
	at, mask := t.slots[i].at, len(t.slots)-1
	for j := (i + 1) & mask; t.slots[j].gen == t.gen; j = (j + 1) & mask {
		// Slot j may fill the hole unless its home lies cyclically in (i, j].
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i].gen = 0
	if last := int32(len(t.keys) - 1); at != last {
		lv := t.keys[last]
		j, _ := t.probe(lv)
		t.slots[j].at = at
		t.keys[at], t.vals[at] = lv, t.vals[last]
	}
	t.keys, t.vals = t.keys[:len(t.keys)-1], t.vals[:len(t.vals)-1]
}

// reset empties t and keeps its capacity, in O(1).
func (t *table[V]) reset() {
	t.keys, t.vals = t.keys[:0], t.vals[:0]
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// vertex is a vertex's entry in its query's table: its value, once it has
// one (the vertex is then in the local scope), and its pending message for
// each of the two supersteps that can be live at once, in the lane of the
// superstep's parity.
type vertex struct {
	val  float64
	has  bool
	msg  [2]float64
	step [2]int32 // superstep+1 whose message the lane holds; 0 if empty
}

// vertices is a query's vertex state on a worker: an entry per vertex with a
// value or a pending message, and per lane the entries with a message, in
// the order their first arrived. A superstep computes its lane's entries in
// that order, found by index, not by key.
type vertices struct {
	table[vertex]
	active [2][]int32
	scope  int32 // entries with a value: |LS(q, w)|
}

// post combines message val for vertex v into the lane of superstep s. A
// lane that holds another superstep's message is a third live superstep,
// which the barrier rules out: a protocol error.
func (vs *vertices) post(s int32, v graph.VertexID, val float64, prog query.Program) error {
	i, _ := vs.ref(v)
	p := s & 1
	switch e := &vs.vals[i]; {
	case s < 0:
		return fmt.Errorf("vertex %d: message for superstep %d", v, s)
	case e.step[p] == s+1:
		e.msg[p] = prog.Combine(e.msg[p], val)
	case e.step[p] != 0:
		return fmt.Errorf("vertex %d: message for superstep %d while superstep %d's is pending", v, s, e.step[p]-1)
	default:
		e.msg[p], e.step[p] = val, s+1
		vs.active[p] = append(vs.active[p], int32(i))
	}
	return nil
}

func (vs *vertices) reset() {
	vs.table.reset()
	vs.active[0], vs.active[1] = vs.active[0][:0], vs.active[1][:0]
	vs.scope = 0
}
