package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAdmissionImmediateGrant(t *testing.T) {
	a := NewAdmission(AdmitConfig{MaxInFlight: 2, MaxQueue: 2}, nil)
	rel1, wait, err := a.Acquire(context.Background())
	if err != nil || wait != 0 {
		t.Fatalf("first acquire: wait %v err %v", wait, err)
	}
	rel2, _, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if s := a.Stats(); s.InFlight != 2 || s.Queued != 0 {
		t.Fatalf("stats %+v, want 2 in flight", s)
	}
	rel1()
	rel2()
	if s := a.Stats(); s.InFlight != 0 {
		t.Fatalf("stats after release %+v, want 0 in flight", s)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	a := NewAdmission(AdmitConfig{MaxInFlight: 1, MaxQueue: 1}, nil)
	rel, _, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	// One waiter fits in the queue.
	queued := make(chan struct{})
	go func() {
		r, _, err := a.Acquire(context.Background())
		if err == nil {
			defer r()
		}
		close(queued)
	}()
	waitFor(t, func() bool { return a.Stats().Queued == 1 })
	// The next one must be rejected immediately.
	if _, _, err := a.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err %v, want ErrQueueFull", err)
	}
	rel()
	<-queued
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	a := NewAdmission(AdmitConfig{MaxInFlight: 1, MaxQueue: 4}, nil)
	rel, _, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	if s := a.Stats(); s.Queued != 0 {
		t.Fatalf("abandoned waiter still queued: %+v", s)
	}
	ok := make(chan error, 1)
	go func() {
		r, _, err := a.Acquire(context.Background())
		if err == nil {
			r()
		}
		ok <- err
	}()
	waitFor(t, func() bool { return a.Stats().Queued == 1 })
	// The abandoned waiter must not absorb the next free slot.
	rel()
	if err := <-ok; err != nil {
		t.Fatalf("re-queue after own timeout: %v", err)
	}
	if _, _, err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestAdmissionQueueBound checks that MaxQueue is the bound a client
// meets: exactly MaxQueue waiters queue, the next is rejected, grants
// follow arrival order, and a waiter whose context ends leaves the queue
// at once so the next arrival takes its place.
func TestAdmissionQueueBound(t *testing.T) {
	const maxQueue = 8
	a := NewAdmission(AdmitConfig{MaxInFlight: 1, MaxQueue: maxQueue}, nil)
	hold, _, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	granted := make(chan int, maxQueue+1)
	var wg sync.WaitGroup
	enqueue := func(ctx context.Context, i int) {
		t.Helper()
		want := a.Stats().Queued + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, _, err := a.Acquire(ctx)
			if err != nil {
				return
			}
			granted <- i
			rel()
		}()
		// Wait until it is queued, so arrival order is i's order.
		waitFor(t, func() bool { return a.Stats().Queued == want })
	}

	const leaver = 3
	ctx, leave := context.WithCancel(context.Background())
	defer leave()
	for i := 0; i < maxQueue; i++ {
		if i == leaver {
			enqueue(ctx, i)
		} else {
			enqueue(context.Background(), i)
		}
	}
	if _, _, err := a.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("waiter %d: err %v, want ErrQueueFull", maxQueue+1, err)
	}

	// The leaver's context ends: it leaves the queue eagerly, and the
	// next arrival is queued in the freed place.
	leave()
	waitFor(t, func() bool { return a.Stats().Queued == maxQueue-1 })
	enqueue(context.Background(), maxQueue)

	hold()
	wg.Wait()
	close(granted)
	var order []int
	for i := range granted {
		order = append(order, i)
	}
	want := []int{0, 1, 2, 4, 5, 6, 7, 8}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want arrival order %v", order, want)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
