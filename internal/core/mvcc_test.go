package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/delta"
	"qgraph/internal/faultpoint"
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
// isolation, the detector covers the pin bookkeeping — a poller reads
// MVCCStats the whole time the event loop pins, unpins and commits, and
// every snapshot it sees must be one the loop published whole.
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
	errCh := make(chan error, readers*queriesEach+2)
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

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := eng.MVCCStats()
			if st.Live < 1 || st.Live > st.Pinned+1 || st.Peak < st.Live || st.OldestPinned > st.Latest ||
				st.Retired+uint64(st.Live) != st.Latest+1 {
				errCh <- fmt.Errorf("torn mvcc stats: %+v", st)
				return
			}
			time.Sleep(50 * time.Microsecond)
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
		t.Fatalf("pins leaked after quiescence: %+v", st)
	}
	if st.Latest != eng.GraphVersion() {
		t.Fatalf("mvcc latest %d != committed version %d", st.Latest, eng.GraphVersion())
	}
}

// TestMVCCPinCounts walks the pin accounting through one overlap: a reader
// held at version 0 keeps that version live across a commit, a second
// reader pins version 1, and once both finish only the latest version is
// live. It is also the regression for oldest_pinned with version 0
// pinned: the refcounted registry this replaced used 0 for "unset" while
// ranging over a map, and reported 1 here whenever it visited 0 first.
func TestMVCCPinCounts(t *testing.T) {
	defer faultpoint.Reset()
	g := recoverGraph(16)
	cfg := Config{Workers: 2, Graph: g, Partitioner: partition.Hash{}}
	fastCommit(&cfg)
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The first superstep anywhere parks its worker until released; later
	// ones pass straight through the closed channel.
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	disarm := faultpoint.Arm(faultpoint.WorkerSuperstep, func(...int) bool {
		once.Do(func() { close(held) })
		<-release
		return false
	})
	defer disarm()

	schedule := func(id query.ID) *Handle {
		t.Helper()
		h, err := eng.Schedule(query.Spec{ID: id, Kind: query.KindSSSP, Source: 0, Target: 15})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	awaitPinned := func(n int) controller.MVCCStats {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := eng.MVCCStats()
			if st.Pinned == n {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("pinned readers never reached %d: %+v", n, st)
			}
			time.Sleep(time.Millisecond)
		}
	}

	h0 := schedule(1)
	<-held
	if res := mutate(t, eng, distanceNeutralOps()); res.Version != 1 {
		t.Fatalf("commit landed at version %d, want 1", res.Version)
	}
	h1 := schedule(2)
	st := awaitPinned(2)
	if st.OldestPinned != 0 || st.Live != 2 || st.Peak < 2 || st.Latest != 1 || st.Retired != 0 {
		t.Fatalf("reader at v0 + reader at v1: %+v, want oldest_pinned 0, 2 live, peak >= 2, none retired", st)
	}

	close(release)
	r0, r1 := h0.Wait(), h1.Wait()
	if r0.Version != 0 || r1.Version != 1 {
		t.Fatalf("results report pins %d and %d, want 0 and 1", r0.Version, r1.Version)
	}
	if r0.Value != r1.Value {
		t.Fatalf("distance-neutral commit changed the answer: %g vs %g", r0.Value, r1.Value)
	}
	// A result is delivered after its query let go of its pin.
	if st = eng.MVCCStats(); st.Pinned != 0 || st.Live != 1 || st.Retired != 1 || st.Peak < 2 {
		t.Fatalf("after both finished: %+v, want 0 pinned, 1 live, 1 retired", st)
	}
	// With nothing pinned, a superseded version retires at the commit; the
	// latest never does.
	mutate(t, eng, distanceNeutralOps())
	if st = eng.MVCCStats(); st.Latest != 2 || st.Live != 1 || st.Retired != 2 {
		t.Fatalf("after an unobserved commit: %+v, want latest 2, 1 live, 2 retired", st)
	}
}
