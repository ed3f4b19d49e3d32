package delta

import (
	"sync"
	"testing"
)

func step(t *testing.T, v *View, w float32) *View {
	t.Helper()
	nv, _ := mustApply(t, v, Op{Kind: OpAddEdge, From: 0, To: 2, Weight: w})
	return nv
}

func TestRegistryPinRetire(t *testing.T) {
	v0 := NewView(lineGraph(3))
	r := NewRegistry(v0)
	if got := r.LatestVersion(); got != 0 {
		t.Fatalf("latest = %d, want 0", got)
	}

	pinned, err := r.Pin(0)
	if err != nil {
		t.Fatalf("pin v0: %v", err)
	}
	if pinned != v0 {
		t.Fatalf("pin returned wrong view")
	}

	v1 := step(t, v0, 5)
	r.Publish(v1)
	if got := r.Latest(); got != v1 {
		t.Fatalf("latest view not v1")
	}
	// v0 still pinned: must survive the publish.
	if s := r.Stats(); s.Live != 2 || s.Pinned != 1 || s.OldestPinned != 0 {
		t.Fatalf("stats after publish = %+v", s)
	}

	r.Unpin(0)
	if s := r.Stats(); s.Live != 1 || s.Retired != 1 {
		t.Fatalf("v0 not retired after unpin: %+v", s)
	}
	if _, err := r.Pin(0); err == nil {
		t.Fatalf("pin of retired version succeeded")
	}
}

func TestRegistryUnpinnedSupersededRetiresOnPublish(t *testing.T) {
	v0 := NewView(lineGraph(3))
	r := NewRegistry(v0)
	r.Publish(step(t, v0, 5))
	if s := r.Stats(); s.Live != 1 || s.Retired != 1 || s.Latest != 1 {
		t.Fatalf("unpinned v0 should retire on publish: %+v", s)
	}
}

func TestRegistryLatestNeverRetires(t *testing.T) {
	v0 := NewView(lineGraph(3))
	r := NewRegistry(v0)
	if _, err := r.Pin(0); err != nil {
		t.Fatalf("pin: %v", err)
	}
	r.Unpin(0)
	// Still latest: a new query must be able to pin it.
	if _, err := r.Pin(0); err != nil {
		t.Fatalf("latest retired while current: %v", err)
	}
}

func TestRegistryUnpinAll(t *testing.T) {
	v0 := NewView(lineGraph(3))
	r := NewRegistry(v0)
	v1 := step(t, v0, 5)
	if _, err := r.Pin(0); err != nil {
		t.Fatal(err)
	}
	r.Publish(v1)
	if _, err := r.Pin(1); err != nil {
		t.Fatal(err)
	}
	r.UnpinAll()
	s := r.Stats()
	if s.Live != 1 || s.Pinned != 0 || s.Latest != 1 {
		t.Fatalf("after UnpinAll: %+v", s)
	}
}

func TestRegistryConcurrentPinUnpin(t *testing.T) {
	v0 := NewView(lineGraph(3))
	r := NewRegistry(v0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer publishes a chain of versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := v0
		for i := 0; i < 200; i++ {
			nv, _, err := v.Apply([]Op{{Kind: OpAddEdge, From: 0, To: 1, Weight: float32(i + 1)}})
			if err != nil {
				t.Errorf("apply: %v", err)
				return
			}
			v = nv
			r.Publish(v)
		}
		close(stop)
	}()
	// Readers pin latest, read, unpin.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ver := r.LatestVersion()
				view, err := r.Pin(ver)
				if err != nil {
					continue // superseded between the two calls; fine
				}
				if view.Version() != ver {
					t.Errorf("pinned view version %d != %d", view.Version(), ver)
				}
				_ = view.NumEdges()
				r.Unpin(ver)
			}
		}()
	}
	wg.Wait()
	if s := r.Stats(); s.Live != 1 || s.Latest != 200 {
		t.Fatalf("final stats: %+v", s)
	}
}
