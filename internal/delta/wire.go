package delta

// Wire sizes of the committed-batch encoding: the log's byte accounting that
// feeds the checkpoint policy, and the durable WAL record payload. The
// transport codec writes ops in the same layout (OpWireBytes each, in
// DeltaBatch frames and a PartitionGrant's batch list) and sizes frames by
// running its own description of them.
const (
	// OpWireBytes is the encoded size of one Op: kind u8, from i32, to
	// i32, weight f32.
	OpWireBytes = 13
	// BatchWireOverhead is the per-batch framing around the ops: version
	// u64 plus the op-count u32.
	BatchWireOverhead = 12
)

// BatchWireBytes returns the encoded size of one committed batch of nops
// operations (framing plus ops, excluding any outer message envelope).
func BatchWireBytes(nops int) int64 {
	return BatchWireOverhead + OpWireBytes*int64(nops)
}
