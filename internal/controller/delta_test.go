package controller

import (
	"testing"

	"qgraph/internal/delta"
)

// TestSealedFIFOBound drives the sealed FIFO to maxSealedInFlight: ops
// staged at the cap wait in pendingOps, the WAL completion channel keeps
// room for every batch in flight so no seal blocks the event loop, and the
// first completion seals everything that waited as one batch.
func TestSealedFIFOBound(t *testing.T) {
	c := newLoopless(t, 2, func(cfg *Config) { cfg.MaxBatchOps = 1 })
	if cap(c.walAckCh) != 2*maxSealedInFlight {
		t.Fatalf("completion channel capacity %d, want %d", cap(c.walAckCh), 2*maxSealedInFlight)
	}
	var first chan MutationResult
	stage := func() {
		ch := make(chan MutationResult, 1)
		if first == nil {
			first = ch
		}
		c.onMutate(mutateReq{ops: []delta.Op{{Kind: delta.OpAddVertex}}, ch: ch})
	}
	for i := 0; i < maxSealedInFlight; i++ {
		stage()
	}
	if len(c.sealed) != maxSealedInFlight || len(c.pendingOps) != 0 {
		t.Fatalf("%d sealed, %d staged; want every op sealed up to the cap", len(c.sealed), len(c.pendingOps))
	}
	const held = 3
	for i := 0; i < held; i++ {
		stage()
	}
	if len(c.sealed) != maxSealedInFlight || len(c.pendingOps) != held {
		t.Fatalf("at the cap: %d sealed, %d staged; want %d, %d", len(c.sealed), len(c.pendingOps), maxSealedInFlight, held)
	}
	if len(c.walAckCh) != maxSealedInFlight {
		t.Fatalf("%d completions queued, want one per sealed batch", len(c.walAckCh))
	}
	if err := c.onWalAck(<-c.walAckCh); err != nil {
		t.Fatal(err)
	}
	if res := <-first; res.Err != nil || res.Version != 1 {
		t.Fatalf("first commit %+v, want version 1", res)
	}
	last := c.sealed[len(c.sealed)-1].batch
	if len(c.sealed) != maxSealedInFlight || len(c.pendingOps) != 0 || len(last.Ops) != held {
		t.Fatalf("after one completion: %d sealed, %d staged, last batch of %d ops; want %d, 0, %d",
			len(c.sealed), len(c.pendingOps), len(last.Ops), maxSealedInFlight, held)
	}
	if len(c.walAckCh) != maxSealedInFlight || len(c.walAckCh) == cap(c.walAckCh) {
		t.Fatalf("%d of %d completions queued, want %d", len(c.walAckCh), cap(c.walAckCh), maxSealedInFlight)
	}
}
