package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qgraph/internal/delta"
)

// TestReadTailGapWithNoSegments is the truncation-floor regression: a
// directory whose every segment was truncated away used to read as an
// empty tail — indistinguishable from "no ops" — so a node recovering from
// a checkpoint older than the floor silently missed versions. With the
// persisted floor, ReadTail must report the gap.
func TestReadTailGapWithNoSegments(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	w.segmentLimit = 128 // force several segments
	appendN(t, w, 1, 10)
	if w.TruncateTo(8) < 1 {
		t.Fatal("truncation released no segments")
	}
	w.Close()
	// Simulate the remaining history vanishing (the crash window of a
	// Rebase, or an operator removing segments): only the floor file is
	// left to prove anything was ever logged.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*"+fileExt))
	if len(segs) == 0 {
		t.Fatal("expected retained segments to remove")
	}
	for _, p := range segs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	// A reader at version 5 (below the floor) must see the gap, not an
	// empty tail.
	if _, err := ReadTail(dir, testGraphID, 5); !errors.Is(err, delta.ErrGap) {
		t.Fatalf("ReadTail(5) over emptied log = %v, want ErrGap", err)
	}
	// At or past the floor the empty tail is genuine: nothing beyond it
	// was ever retained, and a caller holding a checkpoint there is whole.
	if tail, err := ReadTail(dir, testGraphID, w.Base()); err != nil || len(tail) != 0 {
		t.Fatalf("ReadTail(base) = %d batches, %v", len(tail), err)
	}
	// RecoverGraph inherits the same semantics.
	if _, _, err := RecoverGraph(dir, testGraphID, nil, 5); !errors.Is(err, delta.ErrGap) {
		t.Fatalf("RecoverGraph(5) = %v, want ErrGap", err)
	}
}

// TestRebasePersistsFloorBeforeRemoval: a crash between Rebase's segment
// removal and the new segment's creation leaves a directory with no
// segments; the floor written first must preserve the gap evidence.
func TestRebasePersistsFloorBeforeRemoval(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	if err := w.Rebase(40); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate the crash window: the rebased head segment never survives.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*"+fileExt))
	for _, p := range segs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadTail(dir, testGraphID, 39); !errors.Is(err, delta.ErrGap) {
		t.Fatalf("ReadTail(39) = %v, want ErrGap", err)
	}
	if tail, err := ReadTail(dir, testGraphID, 40); err != nil || len(tail) != 0 {
		t.Fatalf("ReadTail(40) = %d batches, %v", len(tail), err)
	}
}

// TestReadTailAcrossRotation: a log rotated across several segments reads
// back whole and in order, from the start or from inside any segment,
// however often the writer rotated between reads.
func TestReadTailAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	defer w.Close()
	w.segmentLimit = 128 // a couple of records per segment

	inOrder := func(from, head uint64) {
		t.Helper()
		got := mustTail(t, dir, from)
		if uint64(len(got)) != head-from {
			t.Fatalf("ReadTail(%d) = %d batches, want %d", from, len(got), head-from)
		}
		for i, b := range got {
			if b.Version != from+1+uint64(i) {
				t.Fatalf("ReadTail(%d): batch %d has version %d", from, i, b.Version)
			}
		}
	}
	for v := uint64(1); v <= 12; v++ {
		appendN(t, w, v, v)
		if v%3 == 0 { // read only every third append
			inOrder(0, v)
		}
	}
	if w.Stats().Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", w.Stats().Segments)
	}
	for from := uint64(0); from <= 12; from++ {
		inOrder(from, 12)
	}
}

// TestReadTailPartialRecord: a half-written record at the tail (the writer
// mid-append) ends the read without error, after the whole prefix;
// completing the record makes it readable.
func TestReadTailPartialRecord(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	appendN(t, w, 1, 2)
	w.Close()

	// Append record 3 in two halves, reading in between.
	rec := encodeRecord(3, testOps(2, 3))
	path := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	if got := mustTail(t, dir, 0); len(got) != 2 || got[1].Version != 2 {
		t.Fatalf("read over torn tail = %+v", got)
	}
	if _, err := f.Write(rec[len(rec)/2:]); err != nil {
		t.Fatal(err)
	}
	got := mustTail(t, dir, 2)
	if len(got) != 1 || got[0].Version != 3 || !reflect.DeepEqual(got[0].Ops, testOps(2, 3)) {
		t.Fatalf("read after completion = %+v", got)
	}
}

// TestReadTailGap: after truncation a reader at the retained base reads
// every retained batch, and one version below it gets delta.ErrGap.
func TestReadTailGap(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	defer w.Close()
	w.segmentLimit = 128
	appendN(t, w, 1, 10)
	if w.TruncateTo(8) < 1 {
		t.Fatal("truncation released no segments")
	}
	base := w.Base()
	if base == 0 {
		t.Fatal("truncation left the base at 0")
	}
	if got := mustTail(t, dir, base); uint64(len(got)) != 10-base {
		t.Fatalf("ReadTail(base %d) = %d batches, want %d", base, len(got), 10-base)
	}
	if _, err := ReadTail(dir, testGraphID, base-1); !errors.Is(err, delta.ErrGap) {
		t.Fatalf("ReadTail(%d) below base %d = %v, want ErrGap", base-1, base, err)
	}
}

// TestReadTailRescansAfterTruncation: a reader racing the writer's
// TruncateTo (a worker starting while the controller cuts a checkpoint)
// can list a segment that is gone by the time it reads it. It must scan
// again rather than fail. The writer removes one segment per step and
// waits for a read that ended after the removal, so no read overlaps two
// removals; each read starts inside the retained chain and must return it.
func TestReadTailRescansAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	defer w.Close()
	w.segmentLimit = 64 // one record per segment
	appendN(t, w, 1, 3)

	const steps = 100
	done, quit, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for v := uint64(4); v < 4+steps; v++ {
			if err := w.Append(v, testOps(3, int(v))); err != nil {
				t.Error(err)
				return
			}
			if n := w.TruncateTo(v - 3); n != 1 {
				t.Errorf("TruncateTo(%d) released %d segments, want 1", v-3, n)
				return
			}
			select {
			case <-done:
			case <-quit:
				return
			}
		}
	}()
	defer func() { close(quit); <-stopped }()
	for {
		select {
		case <-stopped:
			return
		default:
		}
		from := w.Head() - 1
		got, err := ReadTail(dir, testGraphID, from)
		if err != nil {
			t.Fatalf("ReadTail(%d) during truncation: %v", from, err)
		}
		if len(got) == 0 {
			t.Fatalf("ReadTail(%d) during truncation returned nothing", from)
		}
		for i, b := range got {
			if b.Version != from+1+uint64(i) {
				t.Fatalf("ReadTail(%d): batch %d has version %d", from, i, b.Version)
			}
		}
		select {
		case done <- struct{}{}:
		default:
		}
	}
}
