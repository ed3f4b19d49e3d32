package wal

import (
	"sync"
	"testing"
)

// enqueueRange enqueues versions [from, to] and returns one ack channel
// per version, in order.
func enqueueRange(w *WAL, from, to uint64) []chan AppendAck {
	var acks []chan AppendAck
	for v := from; v <= to; v++ {
		ch := make(chan AppendAck, 1)
		w.Enqueue(v, testOps(3, int(v)), ch)
		acks = append(acks, ch)
	}
	return acks
}

func TestGroupCommitDurabilityAndOrder(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	acks := enqueueRange(w, 1, 20)
	for i, ch := range acks {
		ack := <-ch
		if ack.Err != nil {
			t.Fatalf("v%d: %v", i+1, ack.Err)
		}
		if ack.Version != uint64(i+1) {
			t.Fatalf("ack %d carries version %d", i, ack.Version)
		}
	}
	if w.Head() != 20 {
		t.Fatalf("head = %d, want 20", w.Head())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything acked must be replayable after reopen.
	w2 := mustOpen(t, dir)
	defer w2.Close()
	batches, err := ReadTail(dir, testGraphID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 20 {
		t.Fatalf("replayed %d batches, want 20", len(batches))
	}
	for i, b := range batches {
		if b.Version != uint64(i+1) {
			t.Fatalf("batch %d has version %d", i, b.Version)
		}
	}
}

func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	defer w.Close()

	// Stall the committer behind the mutex so a backlog builds, then
	// release: the backlog must ride fewer fsyncs than appends.
	w.mu.Lock()
	acks := enqueueRange(w, 1, 32)
	w.mu.Unlock()
	for _, ch := range acks {
		if ack := <-ch; ack.Err != nil {
			t.Fatal(ack.Err)
		}
	}
	st := w.Stats()
	if st.Appends != 32 {
		t.Fatalf("appends = %d, want 32", st.Appends)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("fsyncs = %d not amortized over %d appends", st.Fsyncs, st.Appends)
	}
	if st.MeanBatchesPerFsync <= 1 {
		t.Fatalf("mean batches/fsync = %v, want > 1", st.MeanBatchesPerFsync)
	}
	if st.GroupedAppends == 0 {
		t.Fatalf("no grouped appends recorded")
	}
}

func TestGroupCommitGroupMetadata(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	defer w.Close()

	w.mu.Lock()
	acks := enqueueRange(w, 1, 8)
	w.mu.Unlock()
	firsts := 0
	var groupTotal int
	for _, ch := range acks {
		ack := <-ch
		if ack.Err != nil {
			t.Fatal(ack.Err)
		}
		if ack.First {
			firsts++
			groupTotal += ack.GroupSize
		}
		if ack.GroupSize < 1 {
			t.Fatalf("group size %d", ack.GroupSize)
		}
	}
	if firsts == 0 {
		t.Fatal("no group-leading ack observed")
	}
	if groupTotal != 8 {
		t.Fatalf("group sizes over leading acks sum to %d, want 8", groupTotal)
	}
}

func TestGroupCommitNonContiguousFailsTail(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	defer w.Close()

	ch1 := make(chan AppendAck, 1)
	chBad := make(chan AppendAck, 1)
	ch2 := make(chan AppendAck, 1)
	w.mu.Lock()
	w.Enqueue(1, testOps(2, 1), ch1)
	w.Enqueue(5, testOps(2, 5), chBad) // gap: must fail
	w.Enqueue(2, testOps(2, 2), ch2)   // after the gap: must fail too
	w.mu.Unlock()
	if ack := <-ch1; ack.Err != nil {
		t.Fatalf("v1: %v", ack.Err)
	}
	if ack := <-chBad; ack.Err == nil {
		t.Fatal("non-contiguous version accepted")
	}
	if ack := <-ch2; ack.Err == nil {
		t.Fatal("batch after group error accepted")
	}
	if w.Head() != 1 {
		t.Fatalf("head = %d, want 1", w.Head())
	}
	// The log must still accept the correct next version.
	chNext := make(chan AppendAck, 1)
	w.Enqueue(2, testOps(2, 2), chNext)
	if ack := <-chNext; ack.Err != nil {
		t.Fatalf("v2 after recovery: %v", ack.Err)
	}
}

func TestGroupCommitRotation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	w.segmentLimit = 256 // force rotations between groups
	for v := uint64(1); v <= 40; v++ {
		ch := make(chan AppendAck, 1)
		w.Enqueue(v, testOps(4, int(v)), ch)
		if ack := <-ch; ack.Err != nil {
			t.Fatal(ack.Err)
		}
	}
	st := w.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir)
	defer w2.Close()
	batches, err := ReadTail(dir, testGraphID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 40 {
		t.Fatalf("replayed %d, want 40", len(batches))
	}
}

func TestGroupCommitCloseFailsQueued(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir)
	var acks []chan AppendAck
	w.mu.Lock()
	acks = enqueueRange(w, 1, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Close() // blocks on mu-held group, then drains
	}()
	w.mu.Unlock()
	wg.Wait()
	// Every batch got SOME answer: committed before the close won the
	// race, or ErrClosed.
	for i, ch := range acks {
		select {
		case <-ch:
		default:
			t.Fatalf("v%d never acked", i+1)
		}
	}
	// Late enqueue after close fails immediately.
	ch := make(chan AppendAck, 1)
	w.Enqueue(99, testOps(1, 1), ch)
	if ack := <-ch; ack.Err == nil {
		t.Fatal("enqueue after close succeeded")
	}
}
