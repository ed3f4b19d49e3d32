package worker

import (
	"qgraph/internal/graph"
	"qgraph/internal/query"
)

// table is a query's vertex state on a worker: its values (the local scope),
// each superstep's inbox, each out buffer, and its scope signature (block →
// touched vertices; the counts are small integers, exact in a float64).
//
// Entries sit in insertion order in dense key and value slices, which is the
// order a superstep visits them in, so a worker emits the same messages in the
// same order on every run. An open-addressing index finds them. Ranging costs
// the entries held and reset costs nothing, however large the table once grew:
// a slot is in use only while it carries the table's current generation. That
// is what lets one free list recycle every table with no size cap.
type table struct {
	keys  []graph.VertexID
	vals  []float64
	slots []slot // linear probing; a power of two, at most half full
	gen   uint32 // ≥ 1; a slot of any other generation is free
	shift uint8  // 32 - log2(len(slots)), for the Fibonacci hash
}

type slot struct {
	key graph.VertexID
	gen uint32
	at  int32 // index of key in keys
}

func newTable() *table {
	return &table{slots: make([]slot, 16), gen: 1, shift: 32 - 4}
}

func (t *table) home(v graph.VertexID) int { return int(uint32(v) * 0x9E3779B9 >> t.shift) }

// probe returns the slot holding v, or the free slot v would take.
func (t *table) probe(v graph.VertexID) (i int, ok bool) {
	mask := len(t.slots) - 1
	for i = t.home(v); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen {
			return i, false
		} else if s.key == v {
			return i, true
		}
	}
}

// len is nil-safe: a superstep nobody sent a message to has no inbox.
func (t *table) len() int {
	if t == nil {
		return 0
	}
	return len(t.keys)
}

func (t *table) get(v graph.VertexID) (float64, bool) {
	if i, ok := t.probe(v); ok {
		return t.vals[t.slots[i].at], true
	}
	return 0, false
}

func (t *table) set(v graph.VertexID, val float64) {
	if i, ok := t.probe(v); ok {
		t.vals[t.slots[i].at] = val
	} else {
		t.insert(i, v, val)
	}
}

// combine folds val into v's value with the program's combiner, in one probe.
func (t *table) combine(v graph.VertexID, val float64, prog query.Program) {
	if i, ok := t.probe(v); ok {
		p := &t.vals[t.slots[i].at]
		*p = prog.Combine(*p, val)
	} else {
		t.insert(i, v, val)
	}
}

func (t *table) insert(i int, v graph.VertexID, val float64) {
	t.slots[i] = slot{v, t.gen, int32(len(t.keys))}
	t.keys = append(t.keys, v)
	t.vals = append(t.vals, val)
	if 2*len(t.keys) > len(t.slots) {
		t.slots = make([]slot, 2*len(t.slots))
		t.shift--
		t.gen = 1
		for at, v := range t.keys {
			i, _ := t.probe(v)
			t.slots[i] = slot{v, t.gen, int32(at)}
		}
	}
}

// del removes v in O(1): the entries after its slot in the probe run shift
// back over the hole, and the last entry moves into its place in keys and
// vals. Ranging backwards over keys may delete the entry it visits.
func (t *table) del(v graph.VertexID) {
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
func (t *table) reset() {
	t.keys, t.vals = t.keys[:0], t.vals[:0]
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}
