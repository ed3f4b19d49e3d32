package wal

import (
	"errors"
	"fmt"
	"time"

	"qgraph/internal/delta"
)

// Group commit: the commit pipeline stages batches faster than the disk
// can fsync, so a committer goroutine drains everything queued since the
// last sync, writes all the records, and pays ONE fsync for the lot. Each
// batch is acked individually with its own version once the shared sync
// returns: fsync before ack, as for a batch committed alone, only the cost
// is amortized. commitGroup is the one place records are synced and
// counted (Append runs it inline on a group of one), and writeRecordLocked
// the one place they are written. The on-disk format is unchanged: one
// record per version, so a reader (Open's scan, ReadTail) never knows
// whether a record was synced alone or in a group.

// ErrClosed is returned on the ack channel for batches still queued when
// the WAL closes.
var ErrClosed = errors.New("wal: closed")

// AppendAck reports the fate of one batch handed to Enqueue.
type AppendAck struct {
	Version uint64
	Err     error
}

type gcReq struct {
	v   uint64
	ops []delta.Op
	ack chan<- AppendAck
}

// gcQueueDepth bounds queued-but-unwritten batches. The controller caps
// its in-flight sealed batches well below this, so Enqueue never blocks
// the event loop in practice.
const gcQueueDepth = 256

// maxGroup caps how many batches one fsync may cover, bounding the blast
// radius of a single write error.
const maxGroup = 128

// Enqueue hands one batch to the group committer; the result arrives on
// ack (which must have capacity, or the committer would stall). Versions
// must be enqueued contiguously from Head by a single producer, and each
// is checked against Head when its record is written. Acks are delivered
// in version order.
//
// Append writes through the same commitGroup, but on the caller's
// goroutine and at once: a producer that mixes the two must have every
// enqueued batch acked before it calls Append.
func (w *WAL) Enqueue(v uint64, ops []delta.Op, ack chan<- AppendAck) {
	// The send happens under gcMu so it cannot race Close: either the flag
	// is already set (fail fast), or the request lands in the queue before
	// Close closes gcQuit — and the committer's shutdown drain will see it.
	// The send may block briefly if the queue is full, but the committer is
	// alive and draining until Close wins gcMu, so it always frees up.
	w.gcMu.Lock()
	if w.gcClosed {
		w.gcMu.Unlock()
		ack <- AppendAck{Version: v, Err: ErrClosed}
		return
	}
	w.gcCh <- gcReq{v: v, ops: ops, ack: ack}
	w.gcMu.Unlock()
}

// groupLoop is the committer goroutine: block for one request, then drain
// everything else already queued into the same fsync group.
func (w *WAL) groupLoop() {
	defer close(w.gcDone)
	for {
		var first gcReq
		select {
		case <-w.gcQuit:
			w.failQueued()
			return
		case first = <-w.gcCh:
		}
		group := append(make([]gcReq, 0, 8), first)
	drain:
		for len(group) < maxGroup {
			select {
			case r := <-w.gcCh:
				group = append(group, r)
			default:
				break drain
			}
		}
		w.commitGroup(group)
	}
}

// failQueued drains and fails anything still queued at shutdown.
func (w *WAL) failQueued() {
	for {
		select {
		case r := <-w.gcCh:
			r.ack <- AppendAck{Version: r.v, Err: ErrClosed}
		default:
			return
		}
	}
}

// commitGroup writes every record in the group, then syncs once and acks
// each batch. A write error fails the broken batch and everything after
// it (versions are contiguous, so later batches cannot commit over the
// gap); batches already written are synced and acked as committed.
func (w *WAL) commitGroup(group []gcReq) {
	w.mu.Lock()
	written := 0 // batches whose records are in the file
	preSize := w.segs[len(w.segs)-1].size
	var writeErr error
	for _, r := range group {
		if err := w.writeRecordLocked(r.v, r.ops); err != nil {
			writeErr = err
			break
		}
		written++
	}
	var syncErr error
	if written > 0 {
		t0 := time.Now()
		syncErr = w.f.Sync()
		fsyncDur := time.Since(t0)
		if syncErr != nil {
			// Nothing in this group is known durable: cut the segment back
			// to its last synced record and fail every batch.
			w.appendErrors.Add(1)
			head := &w.segs[len(w.segs)-1]
			_ = w.f.Truncate(head.size)
			w.head = head.last
			written = 0
		} else {
			w.lastFsync.Store(int64(fsyncDur))
			w.totalFsync.Add(int64(fsyncDur))
			w.fsyncs.Add(1)
			head := &w.segs[len(w.segs)-1]
			if head.size != preSize {
				// writeRecordLocked rotated before the first record: the
				// group's bytes all live in the fresh segment.
				preSize = head.size
			}
			head.size = w.pendingSize
			head.last = w.head
			w.appends.Add(int64(written))
			w.appendedBytes.Add(w.pendingSize - preSize)
			if written > 1 {
				w.groupedAppends.Add(int64(written))
			}
			w.lastGroupSize.Store(int64(written))
			w.publishMirrors()
		}
	}
	w.pendingSize = 0
	w.mu.Unlock()

	for i, r := range group {
		ack := AppendAck{Version: r.v}
		switch {
		case i < written:
			// committed
		case syncErr != nil:
			ack.Err = fmt.Errorf("wal: group fsync: %w", syncErr)
		case i == written && writeErr != nil:
			ack.Err = writeErr
		default:
			ack.Err = fmt.Errorf("wal: append version %d skipped after earlier group error", r.v)
		}
		r.ack <- ack
	}
}

// writeRecordLocked appends one record without syncing, tracking the
// not-yet-durable size in w.pendingSize. Caller holds mu. On error the
// file is truncated back to the last whole record (durable or pending),
// so the segment stays parseable.
func (w *WAL) writeRecordLocked(v uint64, ops []delta.Op) error {
	if want := w.head + 1; v != want {
		return fmt.Errorf("wal: append version %d, want %d", v, want)
	}
	head := &w.segs[len(w.segs)-1]
	if w.pendingSize == 0 {
		w.pendingSize = head.size
	}
	if w.pendingSize >= w.segmentLimit && head.last > head.prev && w.pendingSize == head.size {
		// Rotate only on a group boundary (no unsynced records pending):
		// rotation syncs and closes the old file, which would silently
		// harden batches we have not acked yet.
		if err := w.rotate(); err == nil {
			head = &w.segs[len(w.segs)-1]
			w.pendingSize = head.size
		} else {
			w.appendErrors.Add(1)
		}
	}
	rec := encodeRecord(v, ops)
	if _, err := w.f.Write(rec); err != nil {
		w.appendErrors.Add(1)
		_ = w.f.Truncate(w.pendingSize)
		return fmt.Errorf("wal: append version %d: %w", v, err)
	}
	w.pendingSize += int64(len(rec))
	w.head = v
	return nil
}
