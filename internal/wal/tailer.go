package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"qgraph/internal/delta"
)

// Tailer incrementally follows a WAL directory written by another process
// (the primary), returning newly durable batches on each Poll. It keeps a
// per-segment byte offset and resumes mid-file, so a steady-state poll
// costs O(new bytes), not O(segment); ReadTail is the one-shot form (a
// fresh tailer polled once).
//
// Only whole, CRC-verified, chain-consecutive records advance the offset;
// a partial record at the tail (the writer mid-append, not yet fsynced)
// is left in place and retried on the next poll. Segment rotation is
// detected by name: rotate() creates "wal-<last>.qlog" chaining from the
// sealed segment's final version before closing it, and segment names are
// unique per chain version, so the successor's existence proves the
// current segment will never grow again.
//
// Poll and Version must be called from one goroutine; the stats counters
// are atomics and safe to read from any.
type Tailer struct {
	dir     string
	graphID uint64
	version uint64 // last version returned; the next poll resumes after it

	attached bool
	cur      tailSeg

	polls     atomic.Int64
	bytesRead atomic.Int64
	batches   atomic.Int64
	attaches  atomic.Int64
	verMirror atomic.Uint64
}

// tailSeg is the tailer's cursor into one segment file.
type tailSeg struct {
	path string
	last uint64 // last chained version parsed from this segment
	off  int64  // byte offset of the next unread record
}

// TailerStats is the reader-side accounting of a tailer.
type TailerStats struct {
	Version   uint64 `json:"version"`
	Polls     int64  `json:"polls"`
	BytesRead int64  `json:"bytes_read"`
	Batches   int64  `json:"batches"`
	Attaches  int64  `json:"attaches"`
}

// NewTailer positions a tailer after committed version from: the first
// Poll returns batches with Version > from. The directory may not exist
// yet; polling attaches once it does.
func NewTailer(dir string, graphID uint64, from uint64) *Tailer {
	t := &Tailer{dir: dir, graphID: graphID, version: from}
	t.verMirror.Store(from)
	return t
}

// Version returns the last version Poll has returned.
func (t *Tailer) Version() uint64 { return t.verMirror.Load() }

// Stats returns the tailer's counters. Safe from any goroutine.
func (t *Tailer) Stats() TailerStats {
	return TailerStats{
		Version:   t.verMirror.Load(),
		Polls:     t.polls.Load(),
		BytesRead: t.bytesRead.Load(),
		Batches:   t.batches.Load(),
		Attaches:  t.attaches.Load(),
	}
}

// Poll returns every batch that became durable since the last call, in
// version order; an empty slice means caught up. delta.ErrGap (wrapped)
// means the primary truncated or rebased the log past the tailer's
// position — the follower must re-bootstrap from a newer checkpoint.
func (t *Tailer) Poll() ([]delta.LogBatch, error) {
	t.polls.Add(1)
	if !t.attached {
		if err := t.attach(); err != nil || !t.attached {
			return nil, err
		}
	}
	var out []delta.LogBatch
	reattached := false
	for {
		batches, err := t.readCur()
		if err != nil {
			if !os.IsNotExist(err) {
				return out, err
			}
			// The segment under the cursor vanished: the primary truncated
			// (or rebased) past it. Re-attach once — either the retained
			// chain still covers our position (we resume) or attach reports
			// the gap.
			if reattached {
				return out, nil
			}
			reattached = true
			t.attached = false
			if err := t.attach(); err != nil || !t.attached {
				return out, err
			}
			continue
		}
		out = append(out, batches...)
		// Rotation: a segment named for our current last version is the
		// successor, and its existence proves the current segment is
		// sealed. (If the writer appended more records here first, the
		// successor would be named for a later version — the next readCur
		// picks those records up and we test again.)
		next := segName(t.cur.last)
		if next == filepath.Base(t.cur.path) {
			return out, nil // empty current segment; no successor possible yet
		}
		nextPath := filepath.Join(t.dir, next)
		if _, err := os.Stat(nextPath); err != nil {
			return out, nil // no successor: caught up (or mid-write; retry later)
		}
		t.cur = tailSeg{path: nextPath, last: t.cur.last, off: headerSize}
	}
}

// attach scans the directory once (the only O(log) step) and positions the
// cursor inside the segment covering version+1. Not finding the directory
// or any segments is not an error unless the persisted truncation floor
// proves our position was truncated away.
func (t *Tailer) attach() error {
	segs, err := scanDir(t.dir, t.graphID, false)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		if floor, ok := readFloor(t.dir); ok && t.version < floor {
			return fmt.Errorf("wal: tailing from version %d but the log was truncated to %d: %w",
				t.version, floor, delta.ErrGap)
		}
		return nil // nothing to tail yet; stay detached
	}
	if t.version < segs[0].prev {
		return fmt.Errorf("wal: tailing from version %d predates retained base %d: %w",
			t.version, segs[0].prev, delta.ErrGap)
	}
	// The segment whose records cover version+1 is the last one chaining
	// from <= version. Records at or below version inside it are skipped
	// by readCur's version filter.
	idx := 0
	for i, s := range segs {
		if s.prev <= t.version {
			idx = i
		}
	}
	t.cur = tailSeg{path: segs[idx].path, last: segs[idx].prev, off: headerSize}
	t.attached = true
	t.attaches.Add(1)
	return nil
}

// readCur reads [off, size) of the current segment and parses whole
// records, advancing the offset past each verified one. A short, corrupt,
// or out-of-chain suffix ends the read without advancing past it: if it
// is the writer mid-append the next poll completes it; if it is a genuine
// tear the writer repairs it at its next Open and rotation moves us past.
func (t *Tailer) readCur() ([]delta.LogBatch, error) {
	f, err := os.Open(t.cur.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() <= t.cur.off {
		return nil, nil
	}
	buf := make([]byte, st.Size()-t.cur.off)
	if _, err := f.ReadAt(buf, t.cur.off); err != nil && err != io.EOF {
		return nil, fmt.Errorf("wal: tailing %s: %w", t.cur.path, err)
	}
	t.bytesRead.Add(int64(len(buf)))
	var out []delta.LogBatch
	n, last := walkRecords(buf, t.cur.last, func(b delta.LogBatch) {
		if b.Version > t.version {
			t.version = b.Version
			t.verMirror.Store(b.Version)
			t.batches.Add(1)
			out = append(out, b)
		}
	})
	t.cur.off += int64(n)
	t.cur.last = last
	return out, nil
}
