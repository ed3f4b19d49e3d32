package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// roundTrip encodes m, splits the frame, decodes, and compares deeply. The
// payload is overwritten before the comparison: the TCP reader reads the
// next frame into the same buffer, so a decoded message may share no
// memory with it.
func roundTrip(t *testing.T, m protocol.Message) {
	t.Helper()
	frame, err := Encode(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	if len(frame) < 5 {
		t.Fatalf("frame too short: %d", len(frame))
	}
	payload := bytes.Clone(frame[5:])
	got, err := Decode(protocol.MsgType(frame[4]), payload)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	for i := range payload {
		payload[i] = 0xA5
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", m, got)
	}
}

func sampleMessages() []protocol.Message {
	spec := query.Spec{
		ID: 42, Kind: query.KindSSSP, Source: 7, Target: graph.NilVertex,
		MaxIters: 100, Epsilon: 1e-9, TraceID: 0xDEADBEEFCAFE,
		PinVersion: 0x1122334455667788,
	}
	return []protocol.Message{
		&protocol.ExecuteQuery{Spec: spec},
		&protocol.BarrierReady{Q: 42, Step: 17, Expect: 3, Solo: true, Drained: false},
		&protocol.BarrierReady{Q: 1, Step: 0},
		&protocol.QueryFinish{Q: 9, Reason: protocol.FinishEarly},
		&protocol.GlobalStop{Epoch: 12, Live: []partition.WorkerID{0, 1, 3}},
		&protocol.MoveScope{Epoch: 12, Q: 5, To: 3},
		&protocol.OwnershipUpdate{Epoch: 12, Vertices: []graph.VertexID{1, 2, 3}, Owners: []partition.WorkerID{0, 1, 2}},
		&protocol.GlobalStart{Epoch: 12},
		&protocol.Shutdown{},
		&protocol.BarrierSynch{
			Q: 42, W: 2, Step: 17, FromStep: 12, LocalIters: 5,
			Processed: 100, NActiveNext: 3, ComputeNS: 1234567, ScopeSize: 500,
			SentBatches: []int32{0, 2, 0, 1},
			BestGoal:    123.5, MinFrontier: query.NoResult,
			Intersections: []protocol.IntersectionStat{{Q1: 1, Q2: 2, Shared: 7}},
		},
		&protocol.BarrierSynch{Q: 1, W: 0, BestGoal: query.NoResult, MinFrontier: query.NoResult},
		&protocol.BarrierSynch{
			Q: 7, W: 1, Step: 3, ScopeSize: 130, SentBatches: []int32{1, 0},
			BestGoal: query.NoResult, MinFrontier: 2.5,
			NewBlocks: []int32{0, 17, 16, math.MaxInt32},
		},
		&protocol.StopAck{Epoch: 12, W: 1},
		&protocol.StopMarker{Epoch: 12},
		&protocol.MoveAck{Epoch: 12, Q: 5, From: 1, To: 3, Vertices: []graph.VertexID{10, 20}},
		&protocol.MoveAck{Epoch: 12, Q: 6, From: 0, To: 2},
		&protocol.VertexBatch{
			Q: 42, Step: 3, From: 1, Gen: 5,
			Entries: []protocol.VertexMsg{{To: 5, Val: 1.5}, {To: 9, Val: math.Inf(1)}},
		},
		&protocol.DeltaBatch{
			Version: 3,
			Ops: []delta.Op{
				{Kind: delta.OpAddEdge, From: 1, To: 2, Weight: 1.5},
				{Kind: delta.OpRemoveEdge, From: 2, To: 1},
				{Kind: delta.OpSetWeight, From: 0, To: 1, Weight: 0.25},
				{Kind: delta.OpAddVertex},
			},
			NewOwners: []partition.WorkerID{2},
		},
		&protocol.DeltaBatch{Version: 1},
		&protocol.DeltaAck{Version: 3, W: 2},
		&protocol.Ping{Seq: 99},
		&protocol.Pong{Seq: 99, W: 1},
		&protocol.ScopeData{
			Epoch: 12, Q: 5, From: 1, Gen: 2,
			Vertices: []protocol.MovedVertex{
				{
					V:        77,
					Values:   []protocol.QueryValue{{Q: 5, Val: 2.5}, {Q: 6, Val: 0}},
					Pending:  []protocol.PendingMsg{{Q: 5, Step: 4, Val: 3.25}},
					Finished: []query.ID{8, 9},
				},
				{V: 78},
			},
		},
		&protocol.ScopeData{Epoch: 13, Q: 6, From: 0, Gen: 2},
		&protocol.RecoverStart{Gen: 3, Version: 7, Owner: []partition.WorkerID{0, 2, 2, 0}},
		&protocol.RecoverStart{Gen: 1},
		&protocol.PartitionGrant{
			Gen: 4, Version: 2, BaseVersion: 0, Owner: []partition.WorkerID{1, 1, 0},
			Batches: []delta.LogBatch{
				{Version: 1, Ops: []delta.Op{{Kind: delta.OpAddEdge, From: 0, To: 2, Weight: 2.5}}},
				{Version: 2, Ops: []delta.Op{{Kind: delta.OpAddVertex}, {Kind: delta.OpRemoveEdge, From: 1, To: 0}}},
			},
		},
		&protocol.PartitionGrant{Gen: 2, Version: 0},
		&protocol.PartitionGrant{
			Gen: 5, Version: 9, BaseVersion: 7, Owner: []partition.WorkerID{0, 1},
			Batches: []delta.LogBatch{
				{Version: 8, Ops: []delta.Op{{Kind: delta.OpSetWeight, From: 1, To: 0, Weight: 4}}},
				{Version: 9, Ops: []delta.Op{{Kind: delta.OpAddVertex}}},
			},
		},
		&protocol.WorkerHello{W: 3},
		&protocol.PartitionAck{Gen: 4, W: 3, Version: 2},
		&protocol.StatsPull{Seq: 77},
		&protocol.StatsReport{Seq: 77, W: 2, Pairs: []protocol.IntersectionStat{{Q1: 9, Q2: 4, Shared: 12}, {Q1: 9, Q2: 11, Shared: 1}}},
	}
}

// TestCodecRoundTrip round-trips every message type byte-exactly.
func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		roundTrip(t, m)
	}
}

// TestCodecWireSizeExact checks that WireSize is the encoded size of every
// message type, and that Encode therefore fills the one buffer it sized
// with it; appendFrame behind bytes already in the buffer appends the same
// frame.
func TestCodecWireSizeExact(t *testing.T) {
	seen := make(map[protocol.MsgType]bool)
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		seen[m.Type()] = true
		if est := WireSize(m); est != len(frame) || cap(frame) != est {
			t.Errorf("%T: WireSize %d, encoded %d bytes in a buffer of %d", m, est, len(frame), cap(frame))
		}
		if out, err := appendFrame([]byte("used"), m); err != nil || string(out[:4]) != "used" || !bytes.Equal(out[4:], frame) {
			t.Errorf("%T: appendFrame after 4 bytes wrote %x (%v)", m, out, err)
		}
	}
	for typ, mk := range blank {
		if mk != nil && !seen[protocol.MsgType(typ)] {
			t.Errorf("message type %d has no sample", typ)
		}
	}
}

// goldenFrames is the file that pins the wire format: one line per entry of
// sampleMessages, the message's type name and its frame in hex.
const goldenFrames = "testdata/frames.golden"

// TestCodecGoldenFrames checks every sample against the frame an earlier
// codec wrote for it: Encode gives those bytes exactly, Decode of them
// re-encodes to the same bytes, and WireSize is their length. When the file
// is missing the test writes it from the current codec and fails, so a
// deliberate format change regenerates it by deleting the file and running
// the test once.
func TestCodecGoldenFrames(t *testing.T) {
	samples := sampleMessages()
	var current []string
	for _, m := range samples {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		current = append(current, reflect.TypeOf(m).Elem().Name()+" "+hex.EncodeToString(frame))
	}
	data, err := os.ReadFile(goldenFrames)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(goldenFrames, []byte(strings.Join(current, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s from the current codec; commit it and run again", goldenFrames)
	}
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(golden) != len(samples) {
		t.Fatalf("%s has %d frames, sampleMessages %d", goldenFrames, len(golden), len(samples))
	}
	for i, m := range samples {
		if current[i] != golden[i] {
			t.Errorf("sample %d encodes as\n%s\nwant\n%s", i, current[i], golden[i])
			continue
		}
		frame, _ := hex.DecodeString(golden[i][strings.IndexByte(golden[i], ' ')+1:])
		if n := WireSize(m); n != len(frame) {
			t.Errorf("sample %d (%T): WireSize %d, golden frame %d bytes", i, m, n, len(frame))
		}
		dec, err := Decode(protocol.MsgType(frame[4]), frame[5:])
		if err != nil {
			t.Errorf("sample %d (%T): golden frame does not decode: %v", i, m, err)
			continue
		}
		if again, err := Encode(dec); err != nil || !bytes.Equal(again, frame) {
			t.Errorf("sample %d (%T): golden frame decodes to %#v, which re-encodes as %x (%v)", i, m, dec, again, err)
		}
	}
}

// TestCodecAllocs pins the codec's allocations: Encode allocates the one
// frame it returns, appendFrame into a buffer large enough nothing (the TCP
// sender's reused buffer), and Decode the message plus one array per
// non-empty list, for every sample. A coder moved to the heap shows here
// first.
func TestCodecAllocs(t *testing.T) {
	for i, m := range sampleMessages() {
		if n := testing.AllocsPerRun(50, func() { Encode(m) }); n != 1 {
			t.Errorf("sample %d (%T): Encode allocates %v times, want 1", i, m, n)
		}
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		buf := make([]byte, 0, len(frame))
		if n := testing.AllocsPerRun(50, func() { appendFrame(buf, m) }); n != 0 {
			t.Errorf("sample %d (%T): appendFrame allocates %v times, want 0", i, m, n)
		}
		want := nonEmptyLists(reflect.ValueOf(m))
		if reflect.TypeOf(m).Elem().Size() > 0 { // new(protocol.Shutdown) is free
			want++
		}
		if n := testing.AllocsPerRun(50, func() { Decode(m.Type(), frame[5:]) }); n != float64(want) {
			t.Errorf("sample %d (%T): Decode allocates %v times, want %d", i, m, n, want)
		}
	}
}

// nonEmptyLists counts the non-empty slices reachable from v.
func nonEmptyLists(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		n = nonEmptyLists(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			n += nonEmptyLists(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() > 0 {
			n = 1
		}
		for i := range v.Len() {
			n += nonEmptyLists(v.Index(i))
		}
	}
	return n
}

// BenchmarkCodec times Encode and Decode of the frames that carry nearly all
// traffic: vertex batches at the worker's split size (32) and at the size
// benchmark's layers pass uses (256), a BarrierSynch with 64 intersections
// (the frame the benchmark's codec row times), and ExecuteQuery.
func BenchmarkCodec(b *testing.B) {
	batch := func(n int) protocol.Message {
		vb := &protocol.VertexBatch{Q: 7, Step: 3, From: 1, Entries: make([]protocol.VertexMsg, n)}
		for i := range vb.Entries {
			vb.Entries[i] = protocol.VertexMsg{To: graph.VertexID(i * 37), Val: float64(i) * 1.5}
		}
		return vb
	}
	bs := &protocol.BarrierSynch{Q: 7, W: 1, Step: 3, SentBatches: make([]int32, 4),
		Intersections: make([]protocol.IntersectionStat, 64)}
	for i := range bs.Intersections {
		bs.Intersections[i] = protocol.IntersectionStat{Q1: 7, Q2: query.ID(100 + i), Shared: int32(i)}
	}
	eq := &protocol.ExecuteQuery{Spec: query.Spec{ID: 7, Kind: query.KindSSSP, Source: 3, Target: 99}}
	for _, c := range []struct {
		name string
		m    protocol.Message
	}{{"vertex_batch_32", batch(32)}, {"vertex_batch_256", batch(256)}, {"barrier_synch_64", bs}, {"execute_query", eq}} {
		frame, err := Encode(c.m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for b.Loop() {
				Encode(c.m)
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for b.Loop() {
				Decode(c.m.Type(), frame[5:])
			}
		})
	}
}

// badFrames are frames the decoder must refuse, with the error each must
// name ("" = any): three BarrierSynch block lists — one declaring more
// blocks than the payload holds, one padding a varint with a zero byte, one
// stepping past the largest int32 — an ExecuteQuery from codec generation 4,
// which carried a trailing u32 home-worker word, and the two generation-5
// frames whose tags retired with the counted drain.
func badFrames() []struct {
	name, err string
	frame     []byte
} {
	with := func(list ...byte) []byte {
		frame, _ := Encode(&protocol.BarrierSynch{})
		frame = append(frame[:len(frame)-4], list...) // the empty list is its count
		binary.LittleEndian.PutUint32(frame, uint32(len(frame)-5))
		return frame
	}
	// Spelled out byte by byte, as generation 4 wrote it: id 42, SSSP,
	// source 7, target 9, zero max iters / epsilon / trace id / pin version,
	// then the home word (4: pinned to worker 3, stored +1).
	gen4 := binary.LittleEndian.AppendUint32(nil, 49)
	gen4 = append(gen4, byte(protocol.TExecuteQuery))
	gen4 = binary.LittleEndian.AppendUint64(gen4, 42)
	gen4 = append(gen4, byte(query.KindSSSP))
	gen4 = binary.LittleEndian.AppendUint32(gen4, 7)
	gen4 = binary.LittleEndian.AppendUint32(gen4, 9)
	gen4 = append(gen4, make([]byte, 4+8+8+8)...)
	gen4 = binary.LittleEndian.AppendUint32(gen4, 4)
	retired := func(frame string) []byte {
		b, _ := hex.DecodeString(frame)
		return b
	}
	return []struct {
		name, err string
		frame     []byte
	}{
		{"block count past payload", "", with(0xff, 0xff, 0xff, 0xff, 2, 2, 2)},
		{"padded varint", "", with(1, 0, 0, 0, 0x82, 0x00)},
		{"block past int32", "", with(2, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0x0f, 2)},
		{"generation-4 ExecuteQuery", "4 trailing bytes", gen4},
		{"generation-5 DrainCheck", "unknown message type", retired("11000000050d00000001010000000100000000000000")},
		{"generation-5 DrainAck", "unknown message type", retired("050000000c0c00000003")},
	}
}

// TestCodecRejectsCorrupt checks the decoder fails cleanly on truncated
// and oversized payloads instead of panicking or over-allocating.
func TestCodecRejectsCorrupt(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		payload := frame[5:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := Decode(protocol.MsgType(frame[4]), payload[:cut]); err == nil {
				// Some prefixes of list-bearing messages decode by chance
				// only if they are exactly a valid shorter message — for
				// the fixed-layout types any cut must fail.
				switch m.(type) {
				case *protocol.Shutdown:
				default:
					t.Errorf("%T: decode succeeded on %d/%d byte prefix", m, cut, len(payload))
				}
			}
		}
	}
	if _, err := Decode(protocol.MsgType(200), nil); err == nil {
		t.Errorf("unknown type decoded")
	}
	for _, bad := range badFrames() {
		m, err := Decode(protocol.MsgType(bad.frame[4]), bad.frame[5:])
		if err == nil || !strings.Contains(err.Error(), bad.err) {
			t.Errorf("%s: decoded as %#v, err %v; want an error naming %q", bad.name, m, err, bad.err)
		}
	}
}

// TestCodecPropertyRandomBatches round-trips randomly generated vertex
// batches, including NaN/Inf payloads, via testing/quick.
func TestCodecPropertyRandomBatches(t *testing.T) {
	f := func(q int64, step int32, from uint8, tos []int32, vals []float64) bool {
		n := min(len(tos), len(vals))
		b := &protocol.VertexBatch{
			Q: query.ID(q), Step: step, From: partition.WorkerID(from),
		}
		for i := 0; i < n; i++ {
			b.Entries = append(b.Entries, protocol.VertexMsg{
				To: graph.VertexID(tos[i]), Val: vals[i],
			})
		}
		frame, err := Encode(b)
		if err != nil {
			return false
		}
		got, err := Decode(protocol.MsgType(frame[4]), frame[5:])
		if err != nil {
			return false
		}
		gb := got.(*protocol.VertexBatch)
		if gb.Q != b.Q || gb.Step != b.Step || gb.From != b.From || len(gb.Entries) != len(b.Entries) {
			return false
		}
		for i := range gb.Entries {
			if gb.Entries[i].To != b.Entries[i].To {
				return false
			}
			// Compare bit patterns so NaN round-trips count as equal.
			if math.Float64bits(gb.Entries[i].Val) != math.Float64bits(b.Entries[i].Val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode feeds Decode arbitrary (type, payload) frames, seeded with one
// frame per entry of TestCodecRoundTrip's table. A frame is either rejected
// or accepted as the one canonical encoding of its message — Encode gives
// back the same bytes — and decoding never panics and never allocates more
// than a fixed multiple of the payload it was handed, whatever lengths the
// payload declares.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatalf("encode %T: %v", m, err)
		}
		f.Add(frame[4], frame[5:])
	}
	for _, bad := range badFrames() {
		f.Add(bad.frame[4], bad.frame[5:])
	}
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		// The widest in-memory element per wire byte is ScopeData's
		// MovedVertex (80 bytes for a 16-byte minimum encoding); 4 KiB
		// covers the message struct and the error. TotalAlloc is
		// process-wide and the fuzz worker has goroutines of its own, so
		// only an excess that repeats is Decode's.
		limit := uint64(8*len(payload) + 4096)
		var m protocol.Message
		var err error
		for try := 1; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err = Decode(protocol.MsgType(typ), payload)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			if got <= limit {
				break
			}
			if try == 3 {
				t.Fatalf("type %d: decoding %d bytes allocated %d (limit %d)", typ, len(payload), got, limit)
			}
		}
		if err != nil {
			return
		}
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("type %d: decoded %#v does not re-encode: %v", typ, m, err)
		}
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-5 || frame[4] != typ || !bytes.Equal(frame[5:], payload) {
			t.Fatalf("type %d: accepted payload %x re-encodes as type %d payload %x", typ, payload, frame[4], frame[5:])
		}
	})
}
