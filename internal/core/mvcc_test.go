package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgraph/internal/delta"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// TestMVCCSnapshotIsolation is the pipeline's isolation property: a query
// pinned at version v never observes any batch committed at v+1..v+k,
// however many commits land while it runs.
//
// The probe graph separates two coupled reads by a long chain:
//
//	0 --e1--> 1 --(m-1 unit hops)--> m --e2--> m+1
//
// so SSSP 0→m+1 reads e1 on its first superstep and e2 dozens of
// supersteps later. A writer rewrites both edges in one atomic batch,
// preserving w(e1)+w(e2) == 20 in every committed version; a reader that
// mixed two versions across its run would report a distance off the
// invariant sum. Meant to run under -race (CI does): the assertion covers
// isolation, the detector covers the pin/publish bookkeeping.
func TestMVCCSnapshotIsolation(t *testing.T) {
	const m = 64
	const readers, queriesEach = 4, 8
	b := graph.NewBuilder(m + 2)
	b.AddEdge(0, 1, 10)
	for v := 1; v < m; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	b.AddEdge(m, m+1, 10)
	g := b.MustBuild()
	want := 20.0 + float64(m-1)

	cfg := Config{Workers: 3, Graph: g, Partitioner: partition.Hash{}}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The writer hammers invariant-preserving rewrites until the readers
	// finish. Failures surface on errCh; t.Fatal must not fire off the
	// test goroutine.
	errCh := make(chan error, readers*queriesEach+1)
	stop := make(chan struct{})
	var commits atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x := float32((i * 7) % 10)
			ch, err := eng.Mutate([]delta.Op{
				{Kind: delta.OpSetWeight, From: 0, To: 1, Weight: 10 + x},
				{Kind: delta.OpSetWeight, From: m, To: m + 1, Weight: 10 - x},
			})
			if err != nil {
				errCh <- fmt.Errorf("mutate: %w", err)
				return
			}
			select {
			case res := <-ch:
				if res.Err != nil {
					errCh <- fmt.Errorf("commit: %w", res.Err)
					return
				}
				commits.Add(1)
			case <-time.After(30 * time.Second):
				errCh <- fmt.Errorf("commit %d never resolved", i)
				return
			}
		}
	}()

	var done sync.WaitGroup
	for r := 0; r < readers; r++ {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			for i := 0; i < queriesEach; i++ {
				id := query.ID(1 + r*queriesEach + i)
				h, err := eng.Schedule(query.Spec{
					ID: id, Kind: query.KindSSSP, Source: 0, Target: m + 1,
				})
				if err != nil {
					errCh <- fmt.Errorf("schedule %d: %w", id, err)
					return
				}
				res := h.Wait()
				if res.Reason != protocol.FinishConverged && res.Reason != protocol.FinishEarly {
					errCh <- fmt.Errorf("query %d finished %v", id, res.Reason)
					return
				}
				if res.Value != want {
					errCh <- fmt.Errorf("query %d observed a mixed-version graph: distance %g, want %g (every committed version preserves the sum)",
						id, res.Value, want)
					return
				}
			}
		}(r)
	}
	done.Wait()
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if n := commits.Load(); n < 5 {
		t.Fatalf("only %d commits landed during %d long queries: no real concurrency exercised", n, readers*queriesEach)
	}
	st := eng.MVCCStats()
	if st.Pinned != 0 {
		t.Fatalf("registry leaks pins after quiescence: %+v", st)
	}
	if st.Latest != eng.GraphVersion() {
		t.Fatalf("registry latest %d != committed version %d", st.Latest, eng.GraphVersion())
	}
}
