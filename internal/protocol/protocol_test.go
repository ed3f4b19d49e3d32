package protocol_test

import (
	"reflect"
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
		&protocol.BarrierReady{Q: 42, Step: 3, Expect: 2, Solo: true, Drained: true},
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
