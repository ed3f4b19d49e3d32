package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// Binary codec for protocol messages. Frames on the wire are
//
//	[u32 payload length][u8 message type][payload]
//
// with all integers little-endian and fixed-width, but for one list:
// BarrierSynch.NewBlocks, which every barrier report of every query carries,
// is zigzag varints of the difference to the block before. The codec is
// hand-rolled (stdlib only) and round-trip tested for every message type.

// CodecVersion identifies the frame encoding generation. Message
// payloads carry no per-frame version; instead peers exchange this
// value in the TCP dial handshake (see TCPNode) and connections from a
// peer speaking a different generation are rejected at accept time, so
// a mixed-version cluster (e.g. mid rolling restart) fails loudly
// instead of silently misdecoding frames.
//
// Bump this whenever any message's wire encoding changes shape.
// History:
//
//	1 — initial encoding (implicit; pre-handshake binaries sent no
//	    version byte and are rejected by the handshake length change)
//	2 — ExecuteQuery gained Spec.TraceID, BarrierSynch gained ComputeNS
//	3 — ExecuteQuery gained Spec.PinVersion (MVCC snapshot pinning)
//	4 — BarrierSynch gained NewBlocks (the scope's block set, which the
//	    serving cache invalidates by)
//	5 — ExecuteQuery lost its trailing u32 home-worker word (query
//	    pinning was removed)
//
// The value is deliberately offset from small integers so a legacy
// 1-byte [NodeID] handshake can never alias a valid version.
const CodecVersion = 0xA0 + 5

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f32(v float32) { e.u32(math.Float32bits(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// blocks writes a block list: sorted, as workers send it, a byte a block.
func (e *encoder) blocks(bs []int32) {
	e.u32(uint32(len(bs)))
	prev := int64(0)
	for _, b := range bs {
		e.buf = binary.AppendVarint(e.buf, int64(b)-prev)
		prev = int64(b)
	}
}

// blocksWireBytes is the size of what blocks writes.
func blocksWireBytes(bs []int32) int {
	var scratch [binary.MaxVarintLen64]byte
	n, prev := 4, int64(0)
	for _, b := range bs {
		n += binary.PutVarint(scratch[:], int64(b)-prev)
		prev = int64(b)
	}
	return n
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: truncated %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// bool accepts only the two bytes the encoder writes, so that a frame has
// one encoding.
func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("transport: bool byte %d at offset %d", v, d.off-1)
	}
	return v == 1
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f32() float32 { return math.Float32frombits(d.u32()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// sliceLen reads a length prefix and bounds-checks it against the remaining
// payload (elemSize is the minimum encoded element size) so corrupt frames
// cannot trigger huge allocations.
func (d *decoder) sliceLen(elemSize int) int {
	n := int(d.u32())
	if d.err == nil && (n < 0 || n*elemSize > len(d.buf)-d.off) {
		d.err = fmt.Errorf("transport: slice length %d exceeds payload", n)
		return 0
	}
	return n
}

// blocks reads a block list, accepting only what the encoder writes: the
// shortest varint of a difference that lands on an int32.
func (d *decoder) blocks() []int32 {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	bs := make([]int32, n)
	prev := int64(0)
	for i := range bs {
		if d.err != nil {
			return nil
		}
		diff, w := binary.Varint(d.buf[d.off:])
		prev += diff
		if w <= 0 || (w > 1 && d.buf[d.off+w-1] == 0) || prev != int64(int32(prev)) {
			d.err = fmt.Errorf("transport: bad block at offset %d", d.off)
			return nil
		}
		d.off += w
		bs[i] = int32(prev)
	}
	return bs
}

// Encode serializes m into a frame ready to write to a stream.
func Encode(m protocol.Message) ([]byte, error) {
	e := &encoder{buf: make([]byte, hdr, WireSize(m))} // length + type filled at the end
	switch v := m.(type) {
	case *protocol.ExecuteQuery:
		e.i64(int64(v.Spec.ID))
		e.u8(uint8(v.Spec.Kind))
		e.i32(int32(v.Spec.Source))
		e.i32(int32(v.Spec.Target))
		e.i32(int32(v.Spec.MaxIters))
		e.f64(v.Spec.Epsilon)
		e.u64(v.Spec.TraceID)
		e.u64(v.Spec.PinVersion)
	case *protocol.BarrierReady:
		e.i64(int64(v.Q))
		e.i32(v.Step)
		e.i32(v.Expect)
		e.bool(v.Solo)
		e.bool(v.Drained)
	case *protocol.QueryFinish:
		e.i64(int64(v.Q))
		e.u8(uint8(v.Reason))
	case *protocol.GlobalStop:
		e.i32(v.Epoch)
	case *protocol.DrainCheck:
		e.i32(v.Epoch)
		e.bool(v.Scope)
		e.u32(uint32(len(v.ExpectRecv)))
		for _, x := range v.ExpectRecv {
			e.u64(x)
		}
	case *protocol.MoveScope:
		e.i32(v.Epoch)
		e.i64(int64(v.Q))
		e.u8(uint8(v.To))
	case *protocol.OwnershipUpdate:
		e.i32(v.Epoch)
		if len(v.Vertices) != len(v.Owners) {
			return nil, fmt.Errorf("transport: ownership update lengths differ")
		}
		e.u32(uint32(len(v.Vertices)))
		for i := range v.Vertices {
			e.i32(int32(v.Vertices[i]))
			e.u8(uint8(v.Owners[i]))
		}
	case *protocol.GlobalStart:
		e.i32(v.Epoch)
	case *protocol.Shutdown:
	case *protocol.BarrierSynch:
		e.i64(int64(v.Q))
		e.u8(uint8(v.W))
		e.i32(v.Step)
		e.i32(v.FromStep)
		e.i32(v.LocalIters)
		e.i32(v.Processed)
		e.i32(v.NActiveNext)
		e.i64(v.ComputeNS)
		e.i32(v.ScopeSize)
		e.u32(uint32(len(v.SentBatches)))
		for _, x := range v.SentBatches {
			e.i32(x)
		}
		e.f64(v.BestGoal)
		e.f64(v.MinFrontier)
		e.u32(uint32(len(v.Intersections)))
		for _, s := range v.Intersections {
			e.i64(int64(s.Q1))
			e.i64(int64(s.Q2))
			e.i32(s.Shared)
		}
		e.bool(v.Finished)
		e.blocks(v.NewBlocks)
	case *protocol.StopAck:
		e.i32(v.Epoch)
		e.u8(uint8(v.W))
		e.u32(uint32(len(v.SentTotals)))
		for _, x := range v.SentTotals {
			e.u64(x)
		}
	case *protocol.DrainAck:
		e.i32(v.Epoch)
		e.u8(uint8(v.W))
	case *protocol.MoveAck:
		e.i32(v.Epoch)
		e.i64(int64(v.Q))
		e.u8(uint8(v.From))
		e.u8(uint8(v.To))
		e.u32(uint32(len(v.Vertices)))
		for _, x := range v.Vertices {
			e.i32(int32(x))
		}
	case *protocol.VertexBatch:
		e.i64(int64(v.Q))
		e.i32(v.Step)
		e.u8(uint8(v.From))
		e.i32(v.Gen)
		e.u32(uint32(len(v.Entries)))
		for _, en := range v.Entries {
			e.i32(int32(en.To))
			e.f64(en.Val)
		}
	case *protocol.ScopeData:
		e.i32(v.Epoch)
		e.i64(int64(v.Q))
		e.u8(uint8(v.From))
		e.i32(v.Gen)
		e.u32(uint32(len(v.Vertices)))
		for _, mv := range v.Vertices {
			e.i32(int32(mv.V))
			e.u32(uint32(len(mv.Values)))
			for _, qv := range mv.Values {
				e.i64(int64(qv.Q))
				e.f64(qv.Val)
			}
			e.u32(uint32(len(mv.Pending)))
			for _, pm := range mv.Pending {
				e.i64(int64(pm.Q))
				e.i32(pm.Step)
				e.f64(pm.Val)
			}
			e.u32(uint32(len(mv.Finished)))
			for _, fq := range mv.Finished {
				e.i64(int64(fq))
			}
		}
	case *protocol.DeltaBatch:
		e.u64(v.Version)
		e.u32(uint32(len(v.Ops)))
		for _, op := range v.Ops {
			e.u8(uint8(op.Kind))
			e.i32(int32(op.From))
			e.i32(int32(op.To))
			e.f32(op.Weight)
		}
		e.u32(uint32(len(v.NewOwners)))
		for _, o := range v.NewOwners {
			e.u8(uint8(o))
		}
	case *protocol.DeltaAck:
		e.u64(v.Version)
		e.u8(uint8(v.W))
	case *protocol.Ping:
		e.i64(v.Seq)
	case *protocol.Pong:
		e.i64(v.Seq)
		e.u8(uint8(v.W))
	case *protocol.RecoverStart:
		e.i32(v.Gen)
		e.u64(v.Version)
		e.u32(uint32(len(v.Owner)))
		for _, o := range v.Owner {
			e.u8(uint8(o))
		}
	case *protocol.PartitionGrant:
		e.i32(v.Gen)
		e.u64(v.Version)
		e.u64(v.BaseVersion)
		e.u32(uint32(len(v.Owner)))
		for _, o := range v.Owner {
			e.u8(uint8(o))
		}
		e.u32(uint32(len(v.Batches)))
		for _, b := range v.Batches {
			e.u64(b.Version)
			e.u32(uint32(len(b.Ops)))
			for _, op := range b.Ops {
				e.u8(uint8(op.Kind))
				e.i32(int32(op.From))
				e.i32(int32(op.To))
				e.f32(op.Weight)
			}
		}
	case *protocol.WorkerHello:
		e.u8(uint8(v.W))
	case *protocol.PartitionAck:
		e.i32(v.Gen)
		e.u8(uint8(v.W))
		e.u64(v.Version)
	default:
		return nil, fmt.Errorf("transport: cannot encode %T", m)
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(len(e.buf)-hdr))
	e.buf[4] = byte(m.Type())
	return e.buf, nil
}

// Decode parses one frame payload (without the length prefix).
func Decode(t protocol.MsgType, payload []byte) (protocol.Message, error) {
	d := &decoder{buf: payload}
	var m protocol.Message
	switch t {
	case protocol.TExecuteQuery:
		v := &protocol.ExecuteQuery{}
		v.Spec.ID = query.ID(d.i64())
		v.Spec.Kind = query.Kind(d.u8())
		v.Spec.Source = graph.VertexID(d.i32())
		v.Spec.Target = graph.VertexID(d.i32())
		v.Spec.MaxIters = int(d.i32())
		v.Spec.Epsilon = d.f64()
		v.Spec.TraceID = d.u64()
		v.Spec.PinVersion = d.u64()
		m = v
	case protocol.TBarrierReady:
		v := &protocol.BarrierReady{}
		v.Q = query.ID(d.i64())
		v.Step = d.i32()
		v.Expect = d.i32()
		v.Solo = d.bool()
		v.Drained = d.bool()
		m = v
	case protocol.TQueryFinish:
		v := &protocol.QueryFinish{}
		v.Q = query.ID(d.i64())
		v.Reason = protocol.FinishReason(d.u8())
		m = v
	case protocol.TGlobalStop:
		m = &protocol.GlobalStop{Epoch: d.i32()}
	case protocol.TDrainCheck:
		v := &protocol.DrainCheck{Epoch: d.i32(), Scope: d.bool()}
		if n := d.sliceLen(8); n > 0 {
			v.ExpectRecv = make([]uint64, n)
			for i := range v.ExpectRecv {
				v.ExpectRecv[i] = d.u64()
			}
		}
		m = v
	case protocol.TMoveScope:
		v := &protocol.MoveScope{}
		v.Epoch = d.i32()
		v.Q = query.ID(d.i64())
		v.To = partition.WorkerID(d.u8())
		m = v
	case protocol.TOwnershipUpdate:
		v := &protocol.OwnershipUpdate{Epoch: d.i32()}
		if n := d.sliceLen(5); n > 0 {
			v.Vertices = make([]graph.VertexID, n)
			v.Owners = make([]partition.WorkerID, n)
			for i := 0; i < n; i++ {
				v.Vertices[i] = graph.VertexID(d.i32())
				v.Owners[i] = partition.WorkerID(d.u8())
			}
		}
		m = v
	case protocol.TGlobalStart:
		m = &protocol.GlobalStart{Epoch: d.i32()}
	case protocol.TShutdown:
		m = &protocol.Shutdown{}
	case protocol.TBarrierSynch:
		v := &protocol.BarrierSynch{}
		v.Q = query.ID(d.i64())
		v.W = partition.WorkerID(d.u8())
		v.Step = d.i32()
		v.FromStep = d.i32()
		v.LocalIters = d.i32()
		v.Processed = d.i32()
		v.NActiveNext = d.i32()
		v.ComputeNS = d.i64()
		v.ScopeSize = d.i32()
		if nb := d.sliceLen(4); nb > 0 {
			v.SentBatches = make([]int32, nb)
			for i := range v.SentBatches {
				v.SentBatches[i] = d.i32()
			}
		}
		v.BestGoal = d.f64()
		v.MinFrontier = d.f64()
		ni := d.sliceLen(20)
		if ni > 0 {
			v.Intersections = make([]protocol.IntersectionStat, ni)
			for i := range v.Intersections {
				v.Intersections[i].Q1 = query.ID(d.i64())
				v.Intersections[i].Q2 = query.ID(d.i64())
				v.Intersections[i].Shared = d.i32()
			}
		}
		v.Finished = d.bool()
		v.NewBlocks = d.blocks()
		m = v
	case protocol.TStopAck:
		v := &protocol.StopAck{}
		v.Epoch = d.i32()
		v.W = partition.WorkerID(d.u8())
		if n := d.sliceLen(8); n > 0 {
			v.SentTotals = make([]uint64, n)
			for i := range v.SentTotals {
				v.SentTotals[i] = d.u64()
			}
		}
		m = v
	case protocol.TDrainAck:
		v := &protocol.DrainAck{}
		v.Epoch = d.i32()
		v.W = partition.WorkerID(d.u8())
		m = v
	case protocol.TMoveAck:
		v := &protocol.MoveAck{}
		v.Epoch = d.i32()
		v.Q = query.ID(d.i64())
		v.From = partition.WorkerID(d.u8())
		v.To = partition.WorkerID(d.u8())
		if n := d.sliceLen(4); n > 0 {
			v.Vertices = make([]graph.VertexID, n)
			for i := range v.Vertices {
				v.Vertices[i] = graph.VertexID(d.i32())
			}
		}
		m = v
	case protocol.TVertexBatch:
		v := &protocol.VertexBatch{}
		v.Q = query.ID(d.i64())
		v.Step = d.i32()
		v.From = partition.WorkerID(d.u8())
		v.Gen = d.i32()
		if n := d.sliceLen(12); n > 0 {
			v.Entries = make([]protocol.VertexMsg, n)
			for i := range v.Entries {
				v.Entries[i].To = graph.VertexID(d.i32())
				v.Entries[i].Val = d.f64()
			}
		}
		m = v
	case protocol.TScopeData:
		v := &protocol.ScopeData{}
		v.Epoch = d.i32()
		v.Q = query.ID(d.i64())
		v.From = partition.WorkerID(d.u8())
		v.Gen = d.i32()
		n := d.sliceLen(12)
		v.Vertices = make([]protocol.MovedVertex, n)
		for i := range v.Vertices {
			v.Vertices[i].V = graph.VertexID(d.i32())
			if nv := d.sliceLen(16); nv > 0 {
				v.Vertices[i].Values = make([]protocol.QueryValue, nv)
				for j := range v.Vertices[i].Values {
					v.Vertices[i].Values[j].Q = query.ID(d.i64())
					v.Vertices[i].Values[j].Val = d.f64()
				}
			}
			np := d.sliceLen(20)
			if np > 0 {
				v.Vertices[i].Pending = make([]protocol.PendingMsg, np)
				for j := range v.Vertices[i].Pending {
					v.Vertices[i].Pending[j].Q = query.ID(d.i64())
					v.Vertices[i].Pending[j].Step = d.i32()
					v.Vertices[i].Pending[j].Val = d.f64()
				}
			}
			nf := d.sliceLen(8)
			if nf > 0 {
				v.Vertices[i].Finished = make([]query.ID, nf)
				for j := range v.Vertices[i].Finished {
					v.Vertices[i].Finished[j] = query.ID(d.i64())
				}
			}
		}
		m = v
	case protocol.TDeltaBatch:
		v := &protocol.DeltaBatch{Version: d.u64()}
		if n := d.sliceLen(13); n > 0 {
			v.Ops = make([]delta.Op, n)
			for i := range v.Ops {
				v.Ops[i].Kind = delta.OpKind(d.u8())
				v.Ops[i].From = graph.VertexID(d.i32())
				v.Ops[i].To = graph.VertexID(d.i32())
				v.Ops[i].Weight = d.f32()
			}
		}
		if n := d.sliceLen(1); n > 0 {
			v.NewOwners = make([]partition.WorkerID, n)
			for i := range v.NewOwners {
				v.NewOwners[i] = partition.WorkerID(d.u8())
			}
		}
		m = v
	case protocol.TDeltaAck:
		v := &protocol.DeltaAck{}
		v.Version = d.u64()
		v.W = partition.WorkerID(d.u8())
		m = v
	case protocol.TPing:
		m = &protocol.Ping{Seq: d.i64()}
	case protocol.TPong:
		v := &protocol.Pong{}
		v.Seq = d.i64()
		v.W = partition.WorkerID(d.u8())
		m = v
	case protocol.TRecoverStart:
		v := &protocol.RecoverStart{}
		v.Gen = d.i32()
		v.Version = d.u64()
		if n := d.sliceLen(1); n > 0 {
			v.Owner = make([]partition.WorkerID, n)
			for i := range v.Owner {
				v.Owner[i] = partition.WorkerID(d.u8())
			}
		}
		m = v
	case protocol.TPartitionGrant:
		v := &protocol.PartitionGrant{}
		v.Gen = d.i32()
		v.Version = d.u64()
		v.BaseVersion = d.u64()
		if n := d.sliceLen(1); n > 0 {
			v.Owner = make([]partition.WorkerID, n)
			for i := range v.Owner {
				v.Owner[i] = partition.WorkerID(d.u8())
			}
		}
		if nb := d.sliceLen(12); nb > 0 {
			v.Batches = make([]delta.LogBatch, nb)
			for i := range v.Batches {
				v.Batches[i].Version = d.u64()
				if n := d.sliceLen(13); n > 0 {
					v.Batches[i].Ops = make([]delta.Op, n)
					for j := range v.Batches[i].Ops {
						v.Batches[i].Ops[j].Kind = delta.OpKind(d.u8())
						v.Batches[i].Ops[j].From = graph.VertexID(d.i32())
						v.Batches[i].Ops[j].To = graph.VertexID(d.i32())
						v.Batches[i].Ops[j].Weight = d.f32()
					}
				}
			}
		}
		m = v
	case protocol.TWorkerHello:
		m = &protocol.WorkerHello{W: partition.WorkerID(d.u8())}
	case protocol.TPartitionAck:
		v := &protocol.PartitionAck{}
		v.Gen = d.i32()
		v.W = partition.WorkerID(d.u8())
		v.Version = d.u64()
		m = v
	default:
		return nil, fmt.Errorf("transport: unknown message type %d", t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("transport: %d trailing bytes in %d frame", len(payload)-d.off, t)
	}
	return m, nil
}

// hdr is the frame header: u32 payload length plus the u8 message type.
const hdr = 5

// WireSize returns the encoded size of m, frame header included, without
// encoding it: Encode sizes its buffer with it, and the simulated network
// uses it for transmission-time accounting.
func WireSize(m protocol.Message) int {
	switch v := m.(type) {
	case *protocol.ExecuteQuery:
		return hdr + 45
	case *protocol.BarrierReady:
		return hdr + 18
	case *protocol.QueryFinish:
		return hdr + 9
	case *protocol.GlobalStop, *protocol.GlobalStart:
		return hdr + 4
	case *protocol.DrainCheck:
		return hdr + 9 + 8*len(v.ExpectRecv)
	case *protocol.MoveScope:
		return hdr + 13
	case *protocol.OwnershipUpdate:
		return hdr + 8 + 5*len(v.Vertices)
	case *protocol.BarrierSynch:
		return hdr + 66 + 4*len(v.SentBatches) + 20*len(v.Intersections) + blocksWireBytes(v.NewBlocks)
	case *protocol.StopAck:
		return hdr + 9 + 8*len(v.SentTotals)
	case *protocol.DrainAck:
		return hdr + 5
	case *protocol.MoveAck:
		return hdr + 18 + 4*len(v.Vertices)
	case *protocol.VertexBatch:
		return hdr + 21 + 12*len(v.Entries)
	case *protocol.ScopeData:
		n := hdr + 21
		for _, mv := range v.Vertices {
			n += 16 + 16*len(mv.Values) + 20*len(mv.Pending) + 8*len(mv.Finished)
		}
		return n
	case *protocol.DeltaBatch:
		// Batch framing + ops (the shared batch encoding) plus the
		// owner-list length prefix and owners.
		return hdr + int(delta.BatchWireBytes(len(v.Ops))) + 4 + len(v.NewOwners)
	case *protocol.DeltaAck, *protocol.Pong:
		return hdr + 9
	case *protocol.Ping:
		return hdr + 8
	case *protocol.RecoverStart:
		return hdr + 16 + len(v.Owner)
	case *protocol.PartitionGrant:
		n := hdr + 28 + len(v.Owner)
		for _, b := range v.Batches {
			n += int(delta.BatchWireBytes(len(b.Ops)))
		}
		return n
	case *protocol.WorkerHello:
		return hdr + 1
	case *protocol.PartitionAck:
		return hdr + 13
	default: // Shutdown has no payload
		return hdr
	}
}
