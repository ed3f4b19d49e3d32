package worker

import (
	"maps"
	"testing"
	"time"
)

// A pooled map comes back empty, is handed out again (the same map, not a
// copy), and a map that grew past maxPooledMap is let go, so no later
// superstep pays for its capacity.
func TestMapPoolRecyclesEmptyBoundedMaps(t *testing.T) {
	var p mapPool[int32, int32]
	p.put(nil)
	if len(p) != 0 {
		t.Fatalf("a nil map was pooled")
	}
	m := p.get()
	m[1], m[2] = 10, 20
	p.put(m)
	got := p.get()
	if len(got) != 0 {
		t.Fatalf("recycled map holds %d entries", len(got))
	}
	got[7] = 7
	if m[7] != 7 {
		t.Fatalf("get returned a fresh map while one was pooled")
	}
	if len(p) != 0 {
		t.Fatalf("pool still holds %d maps after the only one was taken", len(p))
	}
	for i := int32(0); i <= maxPooledMap; i++ {
		m[i] = i
	}
	p.put(m)
	if len(p) != 0 || len(m) != maxPooledMap+1 {
		t.Fatalf("a map of %d entries was pooled or cleared (pool %d)", len(m), len(p))
	}
}

// A query that runs on maps an earlier query gave back reports exactly what it
// reports on a fresh worker: recycling carries no vertex, value or signature
// over, and what the finished query is remembered by is its own copy.
func TestRecycledMapsCarryNothingOver(t *testing.T) {
	fresh := newSyncWorker(t, 1, 512, time.Hour)
	want := fresh.runQuery(2, 300, 40)

	s := newSyncWorker(t, 1, 512, time.Hour)
	first := s.runQuery(1, 100, 60)
	if len(s.w.boxes) == 0 || len(s.w.datas) != 1 || len(s.w.sigs) != 1 {
		t.Fatalf("nothing recycled at finish: boxes %d datas %d sigs %d", len(s.w.boxes), len(s.w.datas), len(s.w.sigs))
	}
	got := s.runQuery(2, 300, 40)
	if got.ScopeSize != want.ScopeSize || len(got.Intersections) != 0 {
		t.Fatalf("second query reports scope %d, %d intersections; alone it reports %d, 0",
			got.ScopeSize, len(got.Intersections), want.ScopeSize)
	}
	if !maps.Equal(s.w.finished[2].verts, fresh.w.finished[2].verts) {
		t.Fatalf("second query's remembered scope differs from the one it has alone")
	}
	if n := int32(len(s.w.finished[1].verts)); n != first.ScopeSize || n == 0 {
		t.Fatalf("first query is remembered by %d vertices, reported %d", n, first.ScopeSize)
	}
}
