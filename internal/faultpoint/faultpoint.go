// Package faultpoint is a deterministic fault-injection seam: named points
// in the execution of a component (worker supersteps, barrier acks, delta
// commits, recovery itself) call Hit, and tests arm hooks that decide —
// from the point's context arguments — whether the fault fires there.
//
// In production nothing is armed and Hit is a single atomic load, so the
// seam costs nothing on the hot path. Tests arm hooks to kill a specific
// worker at a specific point (making every recovery path reproducible
// under `go test -race`), to delay a worker, or to count passages.
package faultpoint

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Worker-side points. The first context argument of Hit at each of these
// is the worker id.
const (
	// WorkerSuperstep fires after a superstep's compute, before its
	// BarrierSynch report — a worker dying with work done but unreported.
	WorkerSuperstep = "worker/superstep"
	// WorkerBarrierStop fires on GlobalStop before the worker's markers and
	// its StopAck — a worker dying mid-global-barrier, wedging the STOP round.
	WorkerBarrierStop = "worker/barrier-stop"
	// WorkerDeltaApply fires on DeltaBatch before applying — the worker
	// dies with the batch unapplied.
	WorkerDeltaApply = "worker/delta-apply"
	// WorkerDeltaAck fires on DeltaBatch after applying, before the
	// DeltaAck — the nasty case: the batch is applied on this replica but
	// the controller never learns it.
	WorkerDeltaAck = "worker/delta-ack"
	// WorkerRecover fires on RecoverStart before the reset — a worker
	// dying during recovery itself, forcing a second recovery round.
	WorkerRecover = "worker/recover"
	// WorkerComputeSlow fires inside a superstep's timed compute section:
	// a hook that sleeps and returns false models a straggling worker
	// whose reported ComputeNS inflates deterministically, exercising the
	// health layer's straggler detector.
	WorkerComputeSlow = "worker/compute-slow"
)

// Controller-side checkpointing points (internal/snapshot). These carry no
// context arguments.
const (
	// SnapshotCut fires after the checkpoint's graph is materialized,
	// before it reaches the store — the cut is lost, the log untouched.
	SnapshotCut = "snapshot/cut"
	// SnapshotPersist fires inside the durable write, between the temp
	// file's bytes and the rename — the snapshot exists in memory but not
	// on disk, so the truncation floor must not advance.
	SnapshotPersist = "snapshot/persist"
	// WALAppend fires after a committed batch was durably appended
	// (fsynced) to the write-ahead log but before the commit was
	// acknowledged to the mutation's caller — the at-least-once edge:
	// a restart must recover the batch even though nobody was told it
	// committed.
	WALAppend = "wal/append"
)

// ErrKilled is the sentinel a component returns when an armed point told
// it to die. Harnesses treat it as an injected crash, not a failure.
var ErrKilled = errors.New("faultpoint: killed")

// Hook decides whether the fault fires at a point; args carry the point's
// context (for worker points, args[0] is the worker id). Hooks run on the
// component's goroutine and may sleep to simulate slowness, returning
// false to let execution continue.
type Hook func(args ...int) bool

type entry struct {
	id int64
	h  Hook
}

var (
	armed  atomic.Int32
	mu     sync.Mutex
	nextID int64
	hooks  = map[string][]entry{}
)

// Hit reports whether an armed hook fired at the named point. With nothing
// armed anywhere it is one atomic load.
func Hit(name string, args ...int) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	es := append([]entry(nil), hooks[name]...)
	mu.Unlock()
	for _, e := range es {
		if e.h(args...) {
			return true
		}
	}
	return false
}

// Arm registers a hook at the named point and returns its disarm func.
// Multiple hooks may be armed at one point; they fire in arm order.
func Arm(name string, h Hook) (disarm func()) {
	mu.Lock()
	nextID++
	id := nextID
	hooks[name] = append(hooks[name], entry{id: id, h: h})
	mu.Unlock()
	armed.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			es := hooks[name]
			for i, e := range es {
				if e.id == id {
					hooks[name] = append(es[:i:i], es[i+1:]...)
					break
				}
			}
			if len(hooks[name]) == 0 {
				delete(hooks, name)
			}
			mu.Unlock()
			armed.Add(-1)
		})
	}
}

// KillOnce arms the named point to fire exactly once when args[0] equals
// worker. The returned channel closes when the kill fired.
func KillOnce(name string, worker int) (fired <-chan struct{}, disarm func()) {
	ch := make(chan struct{})
	var once sync.Once
	d := Arm(name, func(args ...int) bool {
		if len(args) == 0 || args[0] != worker {
			return false
		}
		hit := false
		once.Do(func() {
			close(ch)
			hit = true
		})
		return hit
	})
	return ch, d
}

// Reset disarms every point (test cleanup).
func Reset() {
	mu.Lock()
	n := 0
	for _, es := range hooks {
		n += len(es)
	}
	hooks = map[string][]entry{}
	mu.Unlock()
	armed.Add(int32(-n))
}
