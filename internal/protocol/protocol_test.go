package protocol_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
)

// roundTrip encodes m into a wire frame and decodes it back.
func roundTrip(t *testing.T, m protocol.Message) protocol.Message {
	t.Helper()
	buf, err := transport.Encode(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	typ := protocol.MsgType(buf[4])
	if typ != m.Type() {
		t.Fatalf("frame tags type %d, message says %d", typ, m.Type())
	}
	got, err := transport.Decode(typ, buf[5:])
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return got
}

// TestServingPathRoundTrips covers the message types the serving layer
// depends on: query submission, the barrier messages that carry execution
// statistics back, and the finish/global-barrier control messages.
func TestServingPathRoundTrips(t *testing.T) {
	spec := query.Spec{
		ID: 42, Kind: query.KindSSSP, Source: 7, Target: 99,
		MaxIters: 20, Epsilon: 1e-4, TraceID: 0xfeed, PinVersion: 3,
	}
	msgs := []protocol.Message{
		&protocol.ExecuteQuery{Spec: spec},
		&protocol.BarrierReady{Q: 42, Step: 3, Expect: 2, Drained: true, Peers: []partition.WorkerID{1}},
		&protocol.BarrierSynch{
			Q: 42, W: 1, Step: 3, FromStep: 1, LocalIters: 2,
			Processed: 17, NActiveNext: 4, ScopeSize: 120,
			SentBatches: []int32{0, 2, 0, 1},
			BestGoal:    12.5, MinFrontier: 11.25,
			Intersections: []protocol.IntersectionStat{
				{Q1: 42, Q2: 43, Shared: 9},
				{Q1: 42, Q2: 44, Shared: 1},
			},
		},
		&protocol.QueryFinish{Q: 42, Reason: protocol.FinishEarly},
		&protocol.GlobalStop{Epoch: 5, Live: []partition.WorkerID{0, 2, 3}},
		&protocol.StopMarker{Epoch: 5},
		&protocol.StopAck{Epoch: 5, W: 2},
		&protocol.GlobalStart{Epoch: 5},
		&protocol.Shutdown{},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T round trip:\n got  %#v\n want %#v", m, got, m)
		}
	}
}

// TestExecuteQueryPreservesSpecIdentity checks that the fields forming
// the serving layer's cache key survive the wire intact for every query
// kind.
func TestExecuteQueryPreservesSpecIdentity(t *testing.T) {
	specs := []query.Spec{
		{ID: 1, Kind: query.KindSSSP, Source: 0, Target: 5},
		{ID: 2, Kind: query.KindBFS, Source: 3, Target: -1 /* NilVertex flood */, MaxIters: 4},
		{ID: 3, Kind: query.KindPOI, Source: 9, Target: -1},
		{ID: 4, Kind: query.KindPageRank, Source: 2, Target: -1, MaxIters: 20, Epsilon: 1e-4},
	}
	for _, sp := range specs {
		got := roundTrip(t, &protocol.ExecuteQuery{Spec: sp}).(*protocol.ExecuteQuery)
		if got.Spec != sp {
			t.Errorf("spec round trip: got %+v, want %+v", got.Spec, sp)
		}
	}
}

// TestNodeAddressing pins the controller/worker node id mapping the
// transport relies on.
func TestNodeAddressing(t *testing.T) {
	if protocol.ControllerNode != 0 {
		t.Fatalf("controller node id %d, want 0", protocol.ControllerNode)
	}
	for w := partition.WorkerID(0); w < 5; w++ {
		n := protocol.WorkerNode(w)
		if n == protocol.ControllerNode {
			t.Fatalf("worker %d mapped onto the controller node", w)
		}
		if got := protocol.WorkerOf(n); got != w {
			t.Fatalf("WorkerOf(WorkerNode(%d)) = %d", w, got)
		}
	}
}

// TestFinishReasonStrings pins the API wire values of finish reasons.
func TestFinishReasonStrings(t *testing.T) {
	want := map[protocol.FinishReason]string{
		protocol.FinishConverged: "converged",
		protocol.FinishEarly:     "early",
		protocol.FinishMaxIters:  "max_iters",
		protocol.FinishCancelled: "cancelled",
		protocol.FinishRejected:  "rejected",
		protocol.FinishReason(0): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("FinishReason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

// TestSortBlocksEqualsSortCompact: SortBlocks returns what slices.Sort and
// slices.Compact return, on empty and one-element input, on repeats, over a
// range of 2²⁰ ids both dense (the bitmap) and sparse (the sort), and with
// one scratch bitmap reused throughout, which it must leave zeroed.
func TestSortBlocksEqualsSortCompact(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 29))
	var scratch []uint64
	check := func(name string, ids []int32) {
		t.Helper()
		want := slices.Compact(slices.Sorted(slices.Values(ids)))
		for _, bits := range []*[]uint64{&scratch, nil} {
			if got := protocol.SortBlocks(slices.Clone(ids), bits); !slices.Equal(got, want) {
				t.Fatalf("%s: SortBlocks of %d ids = %d ids, want %d", name, len(ids), len(got), len(want))
			}
		}
		if i := slices.IndexFunc(scratch, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("%s: scratch word %d left set", name, i)
		}
	}
	check("empty", nil)
	check("one", []int32{7})
	check("repeats", []int32{5, 5, 5, 2, 2, 9, 5})
	for _, n := range []int{2, 3, 64, 1000, 100_000} {
		for _, span := range []int{1, 63, 64, 65, 1 << 10, 1 << 20} {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(1<<12 + rng.IntN(span))
			}
			check(fmt.Sprintf("%d ids over %d", n, span), ids)
		}
	}
	if len(scratch) == 0 {
		t.Fatal("no input took the bitmap")
	}
}
