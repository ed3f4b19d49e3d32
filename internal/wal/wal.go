// Package wal implements the durable write-ahead op log of the streaming
// update data plane: every committed mutation batch is appended — length
// prefixed, checksummed, fsynced — before the commit is acknowledged to
// the mutation's caller. A full process restart then recovers to the
// exact pre-crash committed version by loading the newest checkpoint
// (internal/snapshot) and replaying the WAL tail beyond it, instead of
// losing every op committed after the last checkpoint.
//
// # On-disk format
//
// The log is a directory of segment files, "wal-<prev-version>.qlog",
// where <prev-version> is the zero-padded committed version the segment's
// first record chains from (so lexical directory order is version order).
// Each segment starts with a fixed header:
//
//	magic   [4]byte  "QWAL"
//	format  uint32   1
//	graph   uint64   graph identity the log belongs to
//	prev    uint64   committed version the first record chains from
//
// followed by records, one per committed batch:
//
//	length  uint32   payload length
//	crc     uint64   CRC-64/ECMA over the payload
//	payload          version uint64, nops uint32, ops (13 bytes each:
//	                 kind u8, from i32, to i32, weight f32)
//
// The payload framing is the shared batch encoding of internal/delta
// (delta.BatchWireBytes), and the graph id plus the explicit per-record
// version chain make a segment self-describing: a node replaying a log
// can verify both what graph it belongs to and that no version is
// missing.
//
// # Crash safety
//
// Records are appended then fsynced; segment headers are written to a
// temp file and renamed, so every *.qlog that exists has a complete
// header. A crash mid-append leaves a torn final record, detected by the
// length prefix or the checksum and truncated away at the next Open — the
// torn record's batch was never acknowledged (the fsync happens before
// the ack), so dropping it loses nothing that was promised. Truncation of
// replayed history (after a durable checkpoint) deletes whole segments,
// which is atomic per segment.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
)

const (
	fileMagic  = "QWAL"
	fileFormat = 1
	fileExt    = ".qlog"
	tmpSuffix  = ".tmp"
	headerSize = 4 + 4 + 8 + 8
	recHdrSize = 4 + 8

	// floorFile persists the truncation floor: the committed version the
	// oldest *ever-retained* history chains from. Without it, a directory
	// whose every segment was truncated away (or removed mid-Rebase by a
	// crash) reads as an empty tail — indistinguishable from "no ops" — and
	// a node recovering from a checkpoint older than the floor would
	// silently miss versions. With it, ReadTail can return delta.ErrGap
	// whenever the retained chain does not provably connect to the
	// requested version.
	floorFile  = "wal.floor"
	floorMagic = "QWFL"

	// maxRecordPayload bounds a record's length prefix so a corrupt
	// prefix cannot trigger a huge allocation.
	maxRecordPayload = 1 << 28

	// segmentBytes is the rotation threshold: a segment past it is closed
	// and a new one started, so truncation (whole segments only) keeps pace
	// with checkpointing.
	segmentBytes = 4 << 20
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// segInfo is one scanned segment.
type segInfo struct {
	path string
	prev uint64 // version the first record chains from
	last uint64 // last record's version (== prev when empty)
	size int64
}

// WAL is an open write-ahead log. Append/TruncateTo/Rebase are owned by
// one writer (the controller); Stats is safe from any goroutine.
type WAL struct {
	dir     string
	graphID uint64

	// segmentLimit is the rotation threshold: segmentBytes, unless a test
	// shrinks it before the first append.
	segmentLimit int64

	mu   sync.Mutex
	f    *os.File // head segment, opened for append
	segs []segInfo
	head uint64

	appends        atomic.Int64
	appendedBytes  atomic.Int64
	appendErrors   atomic.Int64
	truncatedSegs  atomic.Int64
	lastFsync      atomic.Int64 // nanoseconds
	totalFsync     atomic.Int64
	fsyncs         atomic.Int64
	groupedAppends atomic.Int64
	lastGroupSize  atomic.Int64
	baseMirror     atomic.Uint64
	headMirror     atomic.Uint64
	segsMirror     atomic.Int64

	// Group-commit state (see group.go). gcMu guards gcClosed and covers
	// every Enqueue send, so a request can never land in the queue after
	// the committer's shutdown drain. pendingSize tracks the head
	// segment's size including records written but not yet fsynced; it is
	// 0 between groups (a segment is never empty — the header counts).
	gcMu        sync.Mutex
	gcClosed    bool
	gcCh        chan gcReq
	gcQuit      chan struct{}
	gcDone      chan struct{}
	pendingSize int64
}

// Stats is the WAL introspection block of /stats.
type Stats struct {
	Enabled       bool   `json:"enabled"`
	BaseVersion   uint64 `json:"base_version"`
	HeadVersion   uint64 `json:"head_version"`
	Segments      int    `json:"segments"`
	Appends       int64  `json:"appends"`
	AppendedBytes int64  `json:"appended_bytes"`
	AppendErrors  int64  `json:"append_errors,omitempty"`
	TruncatedSegs int64  `json:"truncated_segments,omitempty"`
	LastFsyncUS   int64  `json:"last_fsync_us"`
	MeanFsyncUS   int64  `json:"mean_fsync_us"`
	// Group-commit amortization: Fsyncs counts actual disk syncs (<=
	// Appends when batches share one), GroupedAppends counts appends that
	// rode a multi-batch sync, MeanBatchesPerFsync is the amortization
	// factor (1.0 = no sharing), LastGroupSize is the most recent group.
	Fsyncs              int64   `json:"fsyncs"`
	GroupedAppends      int64   `json:"grouped_appends,omitempty"`
	MeanBatchesPerFsync float64 `json:"mean_batches_per_fsync"`
	LastGroupSize       int64   `json:"last_group_size,omitempty"`
}

// Open opens (or creates) the WAL in dir for graphID, repairing a torn
// tail: the first record that is short, corrupt, or out of chain — and
// everything after it — is truncated away. A log written for a different
// graph id is an error, never silently replayed.
func Open(dir string, graphID uint64) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, graphID: graphID, segmentLimit: segmentBytes}
	w.gcCh = make(chan gcReq, gcQueueDepth)
	w.gcQuit = make(chan struct{})
	w.gcDone = make(chan struct{})
	// Sweep rotation temp files a crash left behind.
	if tmps, err := filepath.Glob(filepath.Join(dir, "wal-*"+fileExt+tmpSuffix)); err == nil {
		for _, p := range tmps {
			_ = os.Remove(p)
		}
	}
	segs, err := scanDir(dir, graphID, true, nil)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.newSegment(0); err != nil {
			return nil, err
		}
		w.publishMirrors()
		go w.groupLoop()
		return w, nil
	}
	w.segs = segs
	w.head = segs[len(segs)-1].last
	head := &w.segs[len(w.segs)-1]
	f, err := os.OpenFile(head.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.publishMirrors()
	go w.groupLoop()
	return w, nil
}

// Base returns the version the oldest retained segment chains from:
// records replay over a graph at this version (or any newer version the
// retained chain covers). Safe from any goroutine.
func (w *WAL) Base() uint64 { return w.baseMirror.Load() }

// Head returns the last durably appended version. Safe from any goroutine.
func (w *WAL) Head() uint64 { return w.headMirror.Load() }

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// publishMirrors refreshes the lock-free stats mirrors. Caller holds mu
// (or is single-threaded during Open).
func (w *WAL) publishMirrors() {
	if len(w.segs) > 0 {
		w.baseMirror.Store(w.segs[0].prev)
	} else {
		w.baseMirror.Store(w.head)
	}
	w.headMirror.Store(w.head)
	w.segsMirror.Store(int64(len(w.segs)))
}

// Stats returns the log's accounting. Safe from any goroutine.
func (w *WAL) Stats() Stats {
	st := Stats{
		Enabled:        true,
		BaseVersion:    w.baseMirror.Load(),
		HeadVersion:    w.headMirror.Load(),
		Segments:       int(w.segsMirror.Load()),
		Appends:        w.appends.Load(),
		AppendedBytes:  w.appendedBytes.Load(),
		AppendErrors:   w.appendErrors.Load(),
		TruncatedSegs:  w.truncatedSegs.Load(),
		LastFsyncUS:    w.lastFsync.Load() / int64(time.Microsecond),
		Fsyncs:         w.fsyncs.Load(),
		GroupedAppends: w.groupedAppends.Load(),
		LastGroupSize:  w.lastGroupSize.Load(),
	}
	if n := st.Fsyncs; n > 0 {
		st.MeanFsyncUS = w.totalFsync.Load() / n / int64(time.Microsecond)
		st.MeanBatchesPerFsync = float64(st.Appends) / float64(n)
	}
	return st
}

// Append durably logs the ops committed as version v: write, fsync, then
// return. It is a commit group of one, run on the caller's goroutine, so
// it is checked, written, synced and counted exactly like an Enqueue'd
// batch. Versions must be appended contiguously from Head. On a write or
// sync error the partial record is truncated away so the segment stays
// parseable, and the error is returned — the caller must not acknowledge
// the batch.
func (w *WAL) Append(v uint64, ops []delta.Op) error {
	ack := make(chan AppendAck, 1)
	w.commitGroup([]gcReq{{v: v, ops: ops, ack: ack}})
	return (<-ack).Err
}

// rotate starts a fresh segment chaining from the current head version,
// then closes the old one. Creation comes first: if it fails, the old
// segment is still open and appendable, so a transient rotation error
// costs nothing but an oversized segment. Caller holds mu.
func (w *WAL) rotate() error {
	old := w.f
	if err := w.newSegment(w.head); err != nil {
		return err
	}
	return old.Close()
}

// newSegment creates and opens a segment chaining from prev. The header
// is written via temp+rename so a crash can never leave a *.qlog with a
// partial header. Caller holds mu (or is single-threaded during Open).
func (w *WAL) newSegment(prev uint64) error {
	path := filepath.Join(w.dir, segName(prev))
	tmp := path + tmpSuffix
	hdr := make([]byte, headerSize)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], fileFormat)
	binary.LittleEndian.PutUint64(hdr[8:16], w.graphID)
	binary.LittleEndian.PutUint64(hdr[16:24], prev)
	if err := os.WriteFile(tmp, hdr, 0o644); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(w.dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.head = prev
	w.segs = append(w.segs, segInfo{path: path, prev: prev, last: prev, size: headerSize})
	w.publishMirrors()
	return nil
}

// TruncateTo deletes every segment fully covered by a durable checkpoint
// at version v (segment.last <= v), never the head segment, and returns
// the number of segments released. Restart recovery is snapshot + tail,
// so the caller must hold a durable snapshot at >= v before truncating.
func (w *WAL) TruncateTo(v uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for len(w.segs) > 1 && w.segs[0].last <= v {
		if err := os.Remove(w.segs[0].path); err != nil {
			break
		}
		w.segs = w.segs[1:]
		n++
	}
	if n > 0 {
		// Record where the retained chain now starts. Best-effort: a write
		// failure only leaves the floor conservatively low, and the head
		// segment (never deleted here) still carries its own prev for the
		// gap check.
		_ = writeFloor(w.dir, w.segs[0].prev)
		syncDir(w.dir)
		w.truncatedSegs.Add(int64(n))
		w.publishMirrors()
	}
	return n
}

// Rebase aligns an empty-or-stale log with a caller starting at committed
// version v (a deployment restored from a checkpoint newer than anything
// the log holds): every retained segment is dropped and a fresh one
// chains from v. A log whose head is beyond v refuses — the caller must
// replay the tail first, not discard it.
func (w *WAL) Rebase(v uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == v {
		return nil
	}
	if w.head > v {
		return fmt.Errorf("wal: rebase to %d behind head %d (replay the tail instead)", v, w.head)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Persist the floor BEFORE removing segments: a crash in the removal
	// window leaves a directory with no segments at all, and without the
	// floor that reads as an empty tail instead of a gap.
	if err := writeFloor(w.dir, v); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, s := range w.segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	w.segs = nil
	syncDir(w.dir)
	return w.newSegment(v)
}

// Close stops the group committer (failing anything still queued), then
// closes the head segment file. The log stays replayable on disk.
func (w *WAL) Close() error {
	w.gcMu.Lock()
	if !w.gcClosed {
		w.gcClosed = true
		close(w.gcQuit)
	}
	w.gcMu.Unlock()
	<-w.gcDone
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// segName returns the segment file name chaining from version prev.
func segName(prev uint64) string {
	return fmt.Sprintf("wal-%016d%s", prev, fileExt)
}

// writeFloor atomically persists the truncation floor for dir: the
// committed version below which history is no longer retained. Written by
// TruncateTo (after dropping covered segments) and by Rebase (before
// dropping every segment, covering the crash window that leaves the
// directory empty).
func writeFloor(dir string, v uint64) error {
	buf := make([]byte, 12)
	copy(buf, floorMagic)
	binary.LittleEndian.PutUint64(buf[4:12], v)
	path := filepath.Join(dir, floorFile)
	tmp := path + tmpSuffix
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readFloor loads the persisted truncation floor, if any. A missing or
// malformed floor file reads as "never truncated" — the pre-floor format,
// where the oldest segment's prev is the only gap evidence.
func readFloor(dir string) (uint64, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, floorFile))
	if err != nil || len(raw) != 12 || string(raw[:4]) != floorMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(raw[4:12]), true
}

// syncDir fsyncs a directory so file creation/removal is durable —
// best-effort, since not every platform or filesystem supports it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// encodeRecord frames one committed batch as a WAL record.
func encodeRecord(v uint64, ops []delta.Op) []byte {
	payloadLen := int(delta.BatchWireBytes(len(ops)))
	rec := make([]byte, recHdrSize+payloadLen)
	payload := rec[recHdrSize:]
	binary.LittleEndian.PutUint64(payload[0:8], v)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(len(ops)))
	off := delta.BatchWireOverhead
	for _, op := range ops {
		payload[off] = byte(op.Kind)
		binary.LittleEndian.PutUint32(payload[off+1:], uint32(int32(op.From)))
		binary.LittleEndian.PutUint32(payload[off+5:], uint32(int32(op.To)))
		binary.LittleEndian.PutUint32(payload[off+9:], math.Float32bits(op.Weight))
		off += delta.OpWireBytes
	}
	binary.LittleEndian.PutUint32(rec[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint64(rec[4:12], crc64.Checksum(payload, crcTable))
	return rec
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (delta.LogBatch, error) {
	if len(payload) < delta.BatchWireOverhead {
		return delta.LogBatch{}, fmt.Errorf("wal: record payload %d bytes", len(payload))
	}
	b := delta.LogBatch{Version: binary.LittleEndian.Uint64(payload[0:8])}
	n := int(binary.LittleEndian.Uint32(payload[8:12]))
	if int64(len(payload)) != delta.BatchWireBytes(n) {
		return delta.LogBatch{}, fmt.Errorf("wal: record claims %d ops in %d bytes", n, len(payload))
	}
	if n > 0 {
		b.Ops = make([]delta.Op, n)
		off := delta.BatchWireOverhead
		for i := range b.Ops {
			b.Ops[i] = delta.Op{
				Kind:   delta.OpKind(payload[off]),
				From:   graph.VertexID(int32(binary.LittleEndian.Uint32(payload[off+1:]))),
				To:     graph.VertexID(int32(binary.LittleEndian.Uint32(payload[off+5:]))),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(payload[off+9:])),
			}
			off += delta.OpWireBytes
		}
	}
	return b, nil
}

// walkRecords is the one place WAL records are parsed: length prefix →
// CRC → decodeRecord → version chain. buf starts on a record boundary and
// last is the version its first record must chain from. Every verified
// record is passed to emit (when set); the walk stops at the first record
// that is short, oversized, corrupt, undecodable or out of chain, and
// returns the bytes of the good prefix and the last version it chained.
func walkRecords(buf []byte, last uint64, emit func(delta.LogBatch)) (int, uint64) {
	n := 0
	for {
		rest := buf[n:]
		if len(rest) < recHdrSize {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if plen > maxRecordPayload || recHdrSize+plen > int64(len(rest)) {
			break
		}
		payload := rest[recHdrSize : recHdrSize+plen]
		if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(rest[4:12]) {
			break
		}
		b, err := decodeRecord(payload)
		if err != nil || b.Version != last+1 || b.Version == 0 { // 0: the chain wrapped
			break
		}
		if emit != nil {
			emit(b)
		}
		last = b.Version
		n += recHdrSize + int(plen)
	}
	return n, last
}

// scanSegment parses one segment file: header checks, then the records up
// to the first torn or out-of-chain one, each passed to emit (when set).
// It returns the segment info (good prefix only; seg.size is the
// truncation point when the tail is torn). When pred is set, a segment
// whose header does not chain from pred's last version is unusable whole:
// it reads as torn at size 0 and emits nothing, since replaying across it
// would skip versions.
func scanSegment(path string, graphID uint64, pred *segInfo, emit func(delta.LogBatch)) (seg segInfo, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return segInfo{}, false, fmt.Errorf("wal: %w", err)
	}
	if len(raw) < headerSize || string(raw[:4]) != fileMagic {
		// A header this broken cannot happen from a crash (headers are
		// written via temp+rename); treat the whole file as torn.
		return segInfo{path: path}, true, nil
	}
	if f := binary.LittleEndian.Uint32(raw[4:8]); f != fileFormat {
		return segInfo{}, false, fmt.Errorf("wal: %s: unknown format %d", path, f)
	}
	if id := binary.LittleEndian.Uint64(raw[8:16]); id != graphID {
		return segInfo{}, false, fmt.Errorf("wal: %s: graph id %#x, want %#x (wrong graph for this log)", path, id, graphID)
	}
	prev := binary.LittleEndian.Uint64(raw[16:24])
	if pred != nil && prev != pred.last {
		return segInfo{path: path}, true, nil
	}
	good, last := walkRecords(raw[headerSize:], prev, emit)
	seg = segInfo{path: path, prev: prev, last: last, size: int64(headerSize + good)}
	return seg, seg.size < int64(len(raw)), nil
}

// scanDir scans every segment in version order, verifying the chain
// across segments and passing each record of the usable chain to emit
// (when set). With repair set, a torn tail is truncated in place and any
// segments after the tear are deleted; without it the scan just stops at
// the tear (read-only callers tolerate a torn tail).
func scanDir(dir string, graphID uint64, repair bool, emit func(delta.LogBatch)) ([]segInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*"+fileExt))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(paths) // zero-padded versions: lexical order is version order
	var segs []segInfo
	for i, p := range paths {
		var pred *segInfo
		if len(segs) > 0 {
			pred = &segs[len(segs)-1]
		}
		seg, torn, err := scanSegment(p, graphID, pred, emit)
		if err != nil {
			return nil, err
		}
		if !torn {
			segs = append(segs, seg)
			continue
		}
		if repair {
			if seg.size <= headerSize {
				// Nothing usable in this segment; drop it (and everything
				// after it, below).
				_ = os.Remove(p)
			} else {
				if err := os.Truncate(p, seg.size); err != nil {
					return nil, fmt.Errorf("wal: repairing %s: %w", p, err)
				}
				segs = append(segs, seg)
			}
			for _, later := range paths[i+1:] {
				_ = os.Remove(later)
			}
			syncDir(dir)
		} else if seg.size > headerSize {
			segs = append(segs, seg)
		}
		break
	}
	return segs, nil
}

// ReadTail reads the durable batches with Version > from without taking
// ownership of the log or repairing anything — the startup path of nodes
// that replay the WAL but do not write it (workers). It is the read-only
// form of Open's scan, reading each segment file once. A missing or empty
// directory is an empty tail, not an error; from below the retained base
// (the oldest segment's prev, or the persisted floor when no segment is
// left) is a delta.ErrGap: the covering checkpoint must be loaded first.
func ReadTail(dir string, graphID uint64, from uint64) ([]delta.LogBatch, error) {
	var tail []delta.LogBatch
	keep := func(b delta.LogBatch) {
		if b.Version > from {
			tail = append(tail, b)
		}
	}
	segs, err := scanDir(dir, graphID, false, keep)
	if errors.Is(err, fs.ErrNotExist) {
		// A segment vanished between the listing and its read: the writer
		// truncated past it. Scan once more; the fresh listing either
		// still covers from or reports the gap.
		tail = tail[:0]
		segs, err = scanDir(dir, graphID, false, keep)
	}
	if err != nil {
		return nil, err
	}
	base, ok := readFloor(dir)
	if len(segs) > 0 {
		base, ok = segs[0].prev, true
	}
	if ok && from < base {
		return nil, fmt.Errorf("wal: reading from version %d but the log is retained from %d: %w", from, base, delta.ErrGap)
	}
	return tail, nil
}

// RecoverGraph folds the WAL tail beyond baseV into base: the startup
// path of every node of a -wal-dir deployment, run after loading the
// newest checkpoint. It returns the recovered graph and version — the
// exact pre-crash committed state, since every committed batch was
// fsynced before its ack.
func RecoverGraph(dir string, graphID uint64, base *graph.Graph, baseV uint64) (*graph.Graph, uint64, error) {
	tail, err := ReadTail(dir, graphID, baseV)
	if err != nil {
		return nil, 0, err
	}
	if len(tail) == 0 {
		return base, baseV, nil
	}
	view, err := delta.ReplayBatchesFrom(base, baseV, tail)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: replaying tail: %w", err)
	}
	return view.Materialize(), view.Version(), nil
}
