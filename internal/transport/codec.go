package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"qgraph/internal/delta"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
)

// Binary codec for protocol messages. A frame is
//
//	[u32 payload length][u8 message type][payload]
//
// with integers little-endian and fixed-width, a list as a u32 count and its
// elements, and one exception: BarrierSynch.NewBlocks, which every barrier
// report carries, is zigzag varints of each block's difference to the one
// before.
//
// Each message is described once, by its case in fields: its fields in wire
// order, each named by the call that codes it. fields runs against a coder in
// one of three modes, and WireSize (sizing: it counts bytes), Encode
// (encoding: it appends them to a buffer of exactly that size) and Decode
// (decoding: it reads them into a new message, bounding every count by the
// payload) drive it. So encoder and decoder agree on field order and
// WireSize is exact. To change a message: edit its case, bump CodecVersion,
// and regenerate testdata/frames.golden (delete it, run
// TestCodecGoldenFrames) in a commit of its own, whose diff is the format
// change and nothing else.

// CodecVersion identifies the frame encoding generation, which the TCP dial
// handshake checks (see TCPNode). Bump it whenever any message's encoding
// changes shape. History:
//
//	1 — initial encoding (pre-handshake binaries sent no version byte)
//	2 — ExecuteQuery gained Spec.TraceID, BarrierSynch gained ComputeNS
//	3 — ExecuteQuery gained Spec.PinVersion (MVCC snapshot pinning)
//	4 — BarrierSynch gained NewBlocks (the serving cache's scope blocks)
//	5 — ExecuteQuery lost its u32 home-worker word (query pinning removed)
//	6 — the global barrier drains with StopMarker (new tag 24): GlobalStop
//	    gained Live, StopAck lost SentTotals, DrainCheck (5) and DrainAck
//	    (12) retired
//	7 — intersections are pulled: StatsPull (25) and StatsReport (26) are
//	    new, BarrierSynch lost Finished
//
// The value is offset from small integers so a legacy 1-byte [NodeID]
// handshake can never alias a valid version.
const CodecVersion = 0xA0 + 7

// hdr is the frame header: u32 payload length plus the u8 message type.
const hdr = 5

// Encode serializes m into a frame ready to write to a stream.
func Encode(m protocol.Message) ([]byte, error) {
	return appendFrame(make([]byte, 0, WireSize(m)), m)
}

// appendFrame appends m's frame to buf: the TCP sender encodes into one
// buffer per peer, which it reuses frame after frame.
func appendFrame(buf []byte, m protocol.Message) ([]byte, error) {
	start := len(buf)
	c := coder{mode: encoding, buf: append(buf, 0, 0, 0, 0, 0)} // header filled last
	fields(&c, m)
	if c.err != nil {
		return nil, c.err
	}
	binary.LittleEndian.PutUint32(c.buf[start:], uint32(len(c.buf)-start-hdr))
	c.buf[start+4] = byte(m.Type())
	return c.buf, nil
}

// Decode parses one frame payload (without the length prefix).
func Decode(t protocol.MsgType, payload []byte) (protocol.Message, error) {
	if int(t) >= len(blank) || blank[t] == nil {
		return nil, fmt.Errorf("transport: unknown message type %d", t)
	}
	m := blank[t]()
	c := coder{mode: decoding, buf: payload}
	fields(&c, m)
	switch {
	case c.err != nil:
		return nil, c.err
	case c.n > len(payload):
		return nil, fmt.Errorf("transport: truncated %d frame: %d bytes of %d", t, len(payload), c.n)
	case c.n < len(payload):
		return nil, fmt.Errorf("transport: %d trailing bytes in %d frame", len(payload)-c.n, t)
	}
	return m, nil
}

// WireSize returns the encoded size of m, frame header included, without
// encoding it: Encode sizes its buffer with it, and the benchmark counts
// bytes on the wire with it.
func WireSize(m protocol.Message) int {
	c := coder{mode: sizing}
	fields(&c, m)
	return hdr + c.n
}

// blank makes, by type tag, the empty message Decode fills.
var blank = [...]func() protocol.Message{
	protocol.TExecuteQuery:    func() protocol.Message { return new(protocol.ExecuteQuery) },
	protocol.TBarrierReady:    func() protocol.Message { return new(protocol.BarrierReady) },
	protocol.TQueryFinish:     func() protocol.Message { return new(protocol.QueryFinish) },
	protocol.TGlobalStop:      func() protocol.Message { return new(protocol.GlobalStop) },
	protocol.TMoveScope:       func() protocol.Message { return new(protocol.MoveScope) },
	protocol.TOwnershipUpdate: func() protocol.Message { return new(protocol.OwnershipUpdate) },
	protocol.TGlobalStart:     func() protocol.Message { return new(protocol.GlobalStart) },
	protocol.TShutdown:        func() protocol.Message { return new(protocol.Shutdown) },
	protocol.TBarrierSynch:    func() protocol.Message { return new(protocol.BarrierSynch) },
	protocol.TStopAck:         func() protocol.Message { return new(protocol.StopAck) },
	protocol.TMoveAck:         func() protocol.Message { return new(protocol.MoveAck) },
	protocol.TVertexBatch:     func() protocol.Message { return new(protocol.VertexBatch) },
	protocol.TScopeData:       func() protocol.Message { return new(protocol.ScopeData) },
	protocol.TDeltaBatch:      func() protocol.Message { return new(protocol.DeltaBatch) },
	protocol.TPing:            func() protocol.Message { return new(protocol.Ping) },
	protocol.TDeltaAck:        func() protocol.Message { return new(protocol.DeltaAck) },
	protocol.TPong:            func() protocol.Message { return new(protocol.Pong) },
	protocol.TRecoverStart:    func() protocol.Message { return new(protocol.RecoverStart) },
	protocol.TPartitionGrant:  func() protocol.Message { return new(protocol.PartitionGrant) },
	protocol.TWorkerHello:     func() protocol.Message { return new(protocol.WorkerHello) },
	protocol.TPartitionAck:    func() protocol.Message { return new(protocol.PartitionAck) },
	protocol.TStopMarker:      func() protocol.Message { return new(protocol.StopMarker) },
	protocol.TStatsPull:       func() protocol.Message { return new(protocol.StatsPull) },
	protocol.TStatsReport:     func() protocol.Message { return new(protocol.StatsReport) },
}

// fields codes m's payload field by field, in wire order: the one
// description of every message.
func fields(c *coder, m protocol.Message) {
	switch v := m.(type) {
	case *protocol.ExecuteQuery:
		u64(c, &v.Spec.ID)
		u8(c, &v.Spec.Kind)
		u32(c, &v.Spec.Source)
		u32(c, &v.Spec.Target)
		narrow(c, &v.Spec.MaxIters)
		f64(c, &v.Spec.Epsilon)
		u64(c, &v.Spec.TraceID)
		u64(c, &v.Spec.PinVersion)
	case *protocol.BarrierReady:
		u64(c, &v.Q)
		u32(c, &v.Step)
		u32(c, &v.Expect)
		boolean(c, &v.Solo)
		boolean(c, &v.Drained)
	case *protocol.QueryFinish:
		u64(c, &v.Q)
		u8(c, &v.Reason)
	case *protocol.GlobalStop:
		u32(c, &v.Epoch)
		u8s(c, &v.Live)
	case *protocol.MoveScope:
		u32(c, &v.Epoch)
		u64(c, &v.Q)
		u8(c, &v.To)
	case *protocol.OwnershipUpdate:
		u32(c, &v.Epoch)
		if len(v.Owners) != len(v.Vertices) {
			c.fail("ownership update lengths differ")
			return
		}
		n := fixed(c, &v.Vertices, 5) // each vertex beside its owner
		if len(v.Owners) < n {        // decoding
			v.Owners = make([]partition.WorkerID, n)
		}
		for i := range n {
			u32(c, &v.Vertices[i])
			u8(c, &v.Owners[i])
		}
	case *protocol.GlobalStart:
		u32(c, &v.Epoch)
	case *protocol.Shutdown:
	case *protocol.BarrierSynch:
		u64(c, &v.Q)
		u8(c, &v.W)
		u32(c, &v.Step)
		u32(c, &v.FromStep)
		u32(c, &v.LocalIters)
		u32(c, &v.Processed)
		u32(c, &v.NActiveNext)
		u64(c, &v.ComputeNS)
		u32(c, &v.ScopeSize)
		u32s(c, &v.SentBatches)
		f64(c, &v.BestGoal)
		f64(c, &v.MinFrontier)
		pairs(c, &v.Intersections)
		blocks(c, &v.NewBlocks)
	case *protocol.StopAck:
		u32(c, &v.Epoch)
		u8(c, &v.W)
	case *protocol.MoveAck:
		u32(c, &v.Epoch)
		u64(c, &v.Q)
		u8(c, &v.From)
		u8(c, &v.To)
		u32s(c, &v.Vertices)
	case *protocol.VertexBatch:
		u64(c, &v.Q)
		u32(c, &v.Step)
		u8(c, &v.From)
		u32(c, &v.Gen)
		for i := range fixed(c, &v.Entries, 12) {
			u32(c, &v.Entries[i].To)
			f64(c, &v.Entries[i].Val)
		}
	case *protocol.ScopeData:
		u32(c, &v.Epoch)
		u64(c, &v.Q)
		u8(c, &v.From)
		u32(c, &v.Gen)
		for i := range list(c, &v.Vertices, 16) {
			mv := &v.Vertices[i]
			u32(c, &mv.V)
			for j := range fixed(c, &mv.Values, 16) {
				u64(c, &mv.Values[j].Q)
				f64(c, &mv.Values[j].Val)
			}
			for j := range fixed(c, &mv.Pending, 20) {
				u64(c, &mv.Pending[j].Q)
				u32(c, &mv.Pending[j].Step)
				f64(c, &mv.Pending[j].Val)
			}
			u64s(c, &mv.Finished)
		}
	case *protocol.DeltaBatch:
		u64(c, &v.Version)
		ops(c, &v.Ops)
		u8s(c, &v.NewOwners)
	case *protocol.DeltaAck:
		u64(c, &v.Version)
		u8(c, &v.W)
	case *protocol.Ping:
		u64(c, &v.Seq)
	case *protocol.Pong:
		u64(c, &v.Seq)
		u8(c, &v.W)
	case *protocol.RecoverStart:
		u32(c, &v.Gen)
		u64(c, &v.Version)
		u8s(c, &v.Owner)
	case *protocol.PartitionGrant:
		u32(c, &v.Gen)
		u64(c, &v.Version)
		u64(c, &v.BaseVersion)
		u8s(c, &v.Owner)
		for i := range list(c, &v.Batches, 12) {
			u64(c, &v.Batches[i].Version)
			ops(c, &v.Batches[i].Ops)
		}
	case *protocol.WorkerHello:
		u8(c, &v.W)
	case *protocol.PartitionAck:
		u32(c, &v.Gen)
		u8(c, &v.W)
		u64(c, &v.Version)
	case *protocol.StopMarker:
		u32(c, &v.Epoch)
	case *protocol.StatsPull:
		u64(c, &v.Seq)
	case *protocol.StatsReport:
		u64(c, &v.Seq)
		u8(c, &v.W)
		pairs(c, &v.Pairs)
	default:
		c.fail("cannot encode %T", m)
	}
}

// pairs codes a list of intersection statistics.
func pairs(c *coder, s *[]protocol.IntersectionStat) {
	for i := range fixed(c, s, 20) {
		u64(c, &(*s)[i].Q1)
		u64(c, &(*s)[i].Q2)
		u32(c, &(*s)[i].Shared)
	}
}

// ops codes a list of graph mutations, in the layout delta.OpWireBytes
// sizes for the log and the WAL.
func ops(c *coder, s *[]delta.Op) {
	for i := range fixed(c, s, delta.OpWireBytes) {
		op := &(*s)[i]
		u8(c, &op.Kind)
		u32(c, &op.From)
		u32(c, &op.To)
		f32(c, &op.Weight)
	}
}

// coder is what a description runs against. Sizing counts the bytes in n;
// encoding appends them to buf; decoding reads them from buf, n bytes in,
// and records the first error. Only decoding writes to the message: Encode
// and WireSize may run on a message another goroutine reads.
type coder struct {
	mode uint8 // sizing, encoding or decoding
	n    int
	buf  []byte
	err  error
}

const (
	sizing = iota
	encoding
	decoding
)

// fail records the first error.
func (c *coder) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: "+format, a...)
	}
}

// at advances n past a w-byte field and, when decoding a payload that holds
// it, returns its bytes; a payload that ends early leaves n past its end,
// which Decode reports. The field coders below call it on every path but
// encoding, the hot one, so that each inlines to one branch when encoding.
func (c *coder) at(w int) []byte {
	c.n += w
	if c.mode != decoding || c.n > len(c.buf) {
		return nil
	}
	return c.buf[c.n-w : c.n]
}

func u8[T ~uint8](c *coder, p *T) {
	if c.mode == encoding {
		c.buf = append(c.buf, byte(*p))
	} else if b := c.at(1); b != nil {
		*p = T(b[0])
	}
}

func u32[T ~int32 | ~uint32](c *coder, p *T) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*p))
	} else if b := c.at(4); b != nil {
		*p = T(binary.LittleEndian.Uint32(b))
	}
}

func u64[T ~int64 | ~uint64](c *coder, p *T) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
	} else if b := c.at(8); b != nil {
		*p = T(binary.LittleEndian.Uint64(b))
	}
}

func f32(c *coder, p *float32) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, math.Float32bits(*p))
	} else if b := c.at(4); b != nil {
		*p = math.Float32frombits(binary.LittleEndian.Uint32(b))
	}
}

func f64(c *coder, p *float64) {
	if c.mode == encoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
	} else if b := c.at(8); b != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// boolean codes a bool as a byte, and decodes only the 0 and 1 encoding
// writes, so that a frame has one encoding.
func boolean(c *coder, p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	u8(c, &b)
	if b > 1 {
		c.fail("bool byte %d at offset %d", b, c.n-1)
	}
	if c.mode == decoding {
		*p = b == 1
	}
}

// narrow codes an int as an i32; query.Spec.Validate keeps MaxIters, the one
// such field, in range.
func narrow(c *coder, p *int) {
	x := int32(*p)
	u32(c, &x)
	if c.mode == decoding {
		*p = int(x)
	}
}

// list codes the count of *s, a list whose elements encode to at least min
// bytes, and returns how many elements the caller codes next. Decoding
// bounds the count by the payload left, so that a corrupt frame cannot
// trigger a huge allocation, and leaves an empty list nil.
func list[T any](c *coder, s *[]T, min int) int {
	n := uint32(len(*s))
	u32(c, &n)
	switch {
	case c.mode != decoding:
		return int(n)
	case c.err != nil || n == 0:
		return 0
	case int(n)*min > len(c.buf)-c.n:
		c.fail("slice length %d exceeds payload", n)
		return 0
	}
	*s = make([]T, n)
	return int(n)
}

// fixed is list for elements of exactly width bytes: sizing counts them
// here and returns 0, so that the caller codes none.
func fixed[T any](c *coder, s *[]T, width int) int {
	n := list(c, s, width)
	if c.mode == sizing {
		c.n += n * width
		return 0
	}
	return n
}

func u8s[T ~uint8](c *coder, s *[]T) {
	for i := range fixed(c, s, 1) {
		u8(c, &(*s)[i])
	}
}

func u32s[T ~int32 | ~uint32](c *coder, s *[]T) {
	for i := range fixed(c, s, 4) {
		u32(c, &(*s)[i])
	}
}

func u64s[T ~int64 | ~uint64](c *coder, s *[]T) {
	for i := range fixed(c, s, 8) {
		u64(c, &(*s)[i])
	}
}

// blocks codes a sorted block list, as workers send it, a byte a block: each
// element is the zigzag varint of its difference to the one before. Decoding
// accepts only what encoding writes: the shortest varint of a difference
// that lands on an int32.
func blocks(c *coder, s *[]int32) {
	var scratch [binary.MaxVarintLen64]byte
	prev := int64(0)
	for i := range list(c, s, 1) {
		switch c.mode {
		case encoding:
			c.buf = binary.AppendVarint(c.buf, int64((*s)[i])-prev)
		case sizing:
			c.n += binary.PutVarint(scratch[:], int64((*s)[i])-prev)
		default:
			if c.err != nil {
				return
			}
			diff, w := binary.Varint(c.buf[c.n:])
			if w <= 0 || (w > 1 && c.buf[c.n+w-1] == 0) || prev+diff != int64(int32(prev+diff)) {
				c.fail("bad block at offset %d", c.n)
				return
			}
			c.n += w
			(*s)[i] = int32(prev + diff)
		}
		prev = int64((*s)[i])
	}
}
