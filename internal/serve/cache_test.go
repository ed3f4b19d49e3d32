package serve

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

func okOutcome(v float64) Outcome {
	return Outcome{Value: v, Reason: protocol.FinishConverged, Supersteps: 3}
}

func testKey(i int) Key {
	return Key{Kind: query.KindSSSP, Source: 1, Target: graph.VertexID(i)}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	k := testKey(2)
	_, f, st := c.Begin(k)
	if st != BeginLead {
		t.Fatalf("first Begin: state %v, want lead", st)
	}
	c.Complete(f, okOutcome(42), nil)
	out, _, st := c.Begin(k)
	if st != BeginHit || out.Value != 42 {
		t.Fatalf("second Begin: state %v value %v, want hit 42", st, out.Value)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss 1 entry", s)
	}
}

func TestCacheCoalescing(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	k := testKey(3)
	_, lead, st := c.Begin(k)
	if st != BeginLead {
		t.Fatalf("leader state %v", st)
	}
	_, join, st := c.Begin(k)
	if st != BeginJoin {
		t.Fatalf("follower state %v, want join", st)
	}
	select {
	case <-join.Done():
		t.Fatal("flight done before completion")
	default:
	}
	c.Complete(lead, okOutcome(7), nil)
	<-join.Done()
	out, err := join.Result()
	if err != nil || out.Value != 7 {
		t.Fatalf("joined result %v err %v, want 7", out.Value, err)
	}
}

func TestCacheLeaderErrorPropagates(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	k := testKey(4)
	_, lead, _ := c.Begin(k)
	_, join, st := c.Begin(k)
	if st != BeginJoin {
		t.Fatalf("state %v, want join", st)
	}
	boom := errors.New("boom")
	c.Complete(lead, Outcome{}, boom)
	<-join.Done()
	if _, err := join.Result(); !errors.Is(err, boom) {
		t.Fatalf("joined err %v, want boom", err)
	}
	// Errors must not be cached; the next Begin leads again.
	if _, _, st := c.Begin(k); st != BeginLead {
		t.Fatalf("state after error %v, want lead", st)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewCache(8, 10*time.Second, clock)
	k := testKey(5)
	_, f, _ := c.Begin(k)
	c.Complete(f, okOutcome(1), nil)
	now = now.Add(11 * time.Second)
	if _, _, st := c.Begin(k); st != BeginLead {
		t.Fatalf("state after TTL %v, want lead (expired)", st)
	}
}

// TestCacheExpirySweep: expired entries must leave the cache without
// their exact keys being looked up again — under a shifting key
// population they would otherwise occupy LRU capacity until displaced.
func TestCacheExpirySweep(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewCache(64, 10*time.Second, clock)
	for i := 0; i < 8; i++ {
		_, f, _ := c.Begin(testKey(i))
		c.Complete(f, okOutcome(float64(i)), nil)
	}
	if s := c.Stats(); s.Entries != 8 {
		t.Fatalf("entries %d, want 8", s.Entries)
	}
	// Touch an old key so LRU order diverges from insertion/expiry order —
	// the sweep must not rely on the back of the list being oldest.
	if _, _, st := c.Begin(testKey(0)); st != BeginHit {
		t.Fatal("warm hit expected")
	}

	now = now.Add(11 * time.Second)
	// No put, no lookups of the expired keys: the Stats-side sweep alone
	// must shed every expired entry.
	if s := c.Stats(); s.Entries != 0 || s.Swept != 8 {
		t.Fatalf("after TTL: entries %d swept %d, want 0 and 8", s.Entries, s.Swept)
	}

	// A put also piggybacks the sweep: refill, expire, insert one fresh
	// key — the fresh key must be the only survivor.
	for i := 0; i < 8; i++ {
		_, f, _ := c.Begin(testKey(i))
		c.Complete(f, okOutcome(float64(i)), nil)
	}
	now = now.Add(11 * time.Second)
	_, f, _ := c.Begin(testKey(100))
	c.Complete(f, okOutcome(100), nil)
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("after put-side sweep: entries %d, want 1", s.Entries)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, time.Minute, nil)
	for i := 0; i < 3; i++ {
		_, f, _ := c.Begin(testKey(i))
		c.Complete(f, okOutcome(float64(i)), nil)
	}
	if _, _, st := c.Begin(testKey(0)); st != BeginLead {
		t.Fatal("oldest entry should have been evicted")
	}
	// Abort the led flight so it does not linger.
	_, f, _ := c.Begin(testKey(1))
	if f != nil {
		t.Fatal("expected hit for recent key")
	}
}

// scoped is a cacheable outcome computed at version pin over blocks.
func scoped(v float64, pin uint64, blocks ...int32) Outcome {
	out := okOutcome(v)
	out.Version, out.Blocks = pin, blocks
	return out
}

// TestCacheCommitEvictsByScope: a commit evicts exactly the entries whose
// scope holds one of its blocks; the others stay and report the new version.
func TestCacheCommitEvictsByScope(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	c.Store(testKey(1), scoped(1, 0, 2, 3, 4))
	c.Store(testKey(2), scoped(2, 0, 4, 5))
	c.Store(testKey(3), scoped(3, 0, 9))
	if n := c.Commit(1, []int32{0, 4, 7}); n != 2 {
		t.Fatalf("commit into block 4 evicted %d entries, want 2", n)
	}
	if _, _, st := c.Begin(testKey(1)); st != BeginLead {
		t.Fatal("an entry whose scope the commit touched survived it")
	}
	if out, _, st := c.Begin(testKey(3)); st != BeginHit || out.Value != 3 || out.Version != 1 {
		t.Fatalf("untouched entry: state %v value %v at version %d, want a hit of 3 at version 1", st, out.Value, out.Version)
	}
	// A version the cache already has is a repeat, not news.
	if n := c.Commit(1, []int32{9}); n != 0 || c.Stats().Entries != 1 {
		t.Fatalf("repeated version evicted %d entries", n)
	}
	if st := c.Stats(); st.Flushes != 0 || st.Version != 1 {
		t.Fatalf("stats %+v, want no whole-cache flush and version 1", st)
	}
}

// TestCacheCommitDetachesFlights: requests after a commit must not coalesce
// onto an execution pinned before it, and that execution finishing must not
// displace the fresh flight for its key.
func TestCacheCommitDetachesFlights(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	_, stale, _ := c.Begin(testKey(7))
	c.Commit(1, []int32{3})
	_, fresh, st := c.Begin(testKey(7))
	if st != BeginLead {
		t.Fatal("post-commit request joined a pre-commit flight")
	}
	c.Complete(stale, scoped(1, 0, 3), nil)
	if _, _, st := c.Begin(testKey(7)); st != BeginJoin {
		t.Fatal("fresh flight lost when the stale leader completed")
	}
	c.Complete(fresh, scoped(2, 1, 3), nil)
	if out, _, st := c.Begin(testKey(7)); st != BeginHit || out.Value != 2 {
		t.Fatalf("post-commit result not stored (state %v, value %v)", st, out.Value)
	}
}

// TestCacheStoresInFlightResultIffUntouched: a result whose flight began
// before a commit is stored iff no batch since its pin touched its blocks,
// and never when a batch since is no longer remembered — for Complete and
// for Store alike. Its joiners get the answer either way.
func TestCacheStoresInFlightResultIffUntouched(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	_, kept, _ := c.Begin(testKey(1))
	_, dropped, _ := c.Begin(testKey(2))
	_, join, _ := c.Begin(testKey(2))
	c.Commit(1, []int32{6})
	c.Commit(2, []int32{8, 40})
	c.Complete(kept, scoped(1, 0, 5, 7, 9), nil)
	c.Complete(dropped, scoped(2, 0, 7, 8), nil)
	if out, _, st := c.Begin(testKey(1)); st != BeginHit || out.Version != 2 {
		t.Fatalf("result no commit touched: state %v at version %d, want a hit at 2", st, out.Version)
	}
	if _, _, st := c.Begin(testKey(2)); st != BeginLead {
		t.Fatal("a result commit 2 touched was stored")
	}
	if out, err := join.Result(); err != nil || out.Value != 2 || out.Version != 0 {
		t.Fatalf("joiner got %+v, %v; want the leader's answer at its pin", out, err)
	}
	c.Store(testKey(3), scoped(3, 1, 40))
	c.Store(testKey(4), scoped(4, 1, 41))
	if _, _, st := c.Begin(testKey(3)); st != BeginLead {
		t.Fatal("Store kept a late result commit 2 touched")
	}
	if _, _, st := c.Begin(testKey(4)); st != BeginHit {
		t.Fatal("Store dropped a late result no commit touched")
	}
	// recentBatches commits later the batches since pin 2 are not all
	// remembered, whatever they touched.
	for v := uint64(3); v <= 3+recentBatches; v++ {
		c.Commit(v, nil)
	}
	c.Store(testKey(5), scoped(5, 2, 1))
	c.Store(testKey(6), scoped(6, 3, 1))
	if _, _, st := c.Begin(testKey(5)); st != BeginLead {
		t.Fatalf("a result pinned %d versions back was stored", recentBatches+1)
	}
	if _, _, st := c.Begin(testKey(6)); st != BeginHit {
		t.Fatalf("a result pinned %d versions back, all remembered and untouching, was dropped", recentBatches)
	}
}

// TestCacheVersionGapFlushes: a commit that is not the next version means
// batches went unseen, so nothing cached or still running can be vouched for.
func TestCacheVersionGapFlushes(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	if n := c.Commit(7, nil); n != 0 || c.Stats().Flushes != 0 || c.Stats().Version != 7 {
		t.Fatalf("starting an empty cache at version 7: evicted %d, stats %+v", n, c.Stats())
	}
	c.Store(testKey(1), scoped(1, 7, 1))
	c.Store(testKey(2), scoped(2, 7, 2))
	if n := c.Commit(9, []int32{5}); n != 2 || c.Stats().Entries != 0 || c.Stats().Flushes != 1 {
		t.Fatalf("gap 7→9: evicted %d, stats %+v; want everything gone in one flush", n, c.Stats())
	}
	c.Store(testKey(3), scoped(3, 7, 1))
	if _, _, st := c.Begin(testKey(3)); st != BeginLead {
		t.Fatal("a result pinned before the gap was stored")
	}
	c.Store(testKey(4), scoped(4, 8, 1))
	if _, _, st := c.Begin(testKey(4)); st != BeginHit {
		t.Fatal("a result pinned after the gap and missed by commit 9 was dropped")
	}
}

// checkCacheInvariants walks every structure of c: the list, the key map and
// the block index describe the same entries, within the configured bounds.
func checkCacheInvariants(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() > c.cap || len(c.entries) != c.lru.Len() {
		t.Fatalf("%d listed, %d keyed, capacity %d", c.lru.Len(), len(c.entries), c.cap)
	}
	if c.version-c.floor > recentBatches {
		t.Fatalf("versions (%d, %d] remembered, bound %d", c.floor, c.version, recentBatches)
	}
	indexed := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		en := el.Value.(*entry)
		if c.entries[en.key] != el {
			t.Fatalf("entry %+v is listed but keyed elsewhere", en.key)
		}
		for g := range groupsOf(en.out.Blocks) {
			if _, ok := c.byBlock[g][el]; !ok {
				t.Fatalf("entry %+v is not indexed under its group %d", en.key, g)
			}
			indexed++
		}
	}
	for b, set := range c.byBlock {
		if len(set) == 0 {
			t.Fatalf("group %d keeps an empty index set", b)
		}
		indexed -= len(set)
	}
	if indexed != 0 {
		t.Fatalf("the block index holds %d references to entries that are gone", -indexed)
	}
}

// TestCacheBoundsUnderChurn interleaves puts, re-puts, TTL expiry, LRU
// eviction and commits and checks the invariants after every step: the
// entries never exceed the capacity, the remembered batches never exceed
// recentBatches, and the block index never outlives its entries.
func TestCacheBoundsUnderChurn(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache(32, 10*time.Second, func() time.Time { return now })
	rng := rand.New(rand.NewPCG(7, 7))
	version := uint64(0)
	for step := 0; step < 4000; step++ {
		switch r := rng.IntN(10); {
		case r < 6:
			blocks := make([]int32, 1+rng.IntN(6))
			first := int32(rng.IntN(40))
			for i := range blocks {
				blocks[i] = first + int32(i)
			}
			c.Store(testKey(rng.IntN(96)), scoped(1, version-min(version, uint64(rng.IntN(3))), blocks...))
		case r < 7:
			c.Begin(testKey(rng.IntN(96))) // a hit reorders; a miss leaves a flight for the next commit to drop
		case r < 9:
			version++
			c.Commit(version, []int32{int32(rng.IntN(40)), int32(rng.IntN(40))})
		default:
			now = now.Add(time.Duration(rng.IntN(6)) * time.Second)
			c.Stats()
		}
		checkCacheInvariants(t, c)
	}
	if st := c.Stats(); st.Flushes != 0 || st.Swept == 0 || st.Hits == 0 {
		t.Fatalf("churn never expired or hit anything, or flushed: %+v", st)
	}
}

// TestCacheHitDoesNotAllocate: carrying the scope on the entry costs a hit
// nothing — hot_repeat is this path and nothing else.
func TestCacheHitDoesNotAllocate(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	k := testKey(1)
	c.Store(k, scoped(1, 0, 1, 2, 3))
	c.Commit(1, []int32{9})
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, st := c.Begin(k); st != BeginHit {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("a cache hit allocates %v times, want 0", n)
	}
}

func TestCachePeek(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewCache(8, 10*time.Second, clock)
	if c.Peek(testKey(1)) {
		t.Fatal("peek hit on empty cache")
	}
	_, f, _ := c.Begin(testKey(1))
	if !c.Peek(testKey(1)) {
		t.Fatal("peek missed an in-flight computation")
	}
	c.Complete(f, okOutcome(1), nil)
	if !c.Peek(testKey(1)) {
		t.Fatal("peek missed a stored result")
	}
	now = now.Add(11 * time.Second)
	if c.Peek(testKey(1)) {
		t.Fatal("peek hit an expired entry")
	}
}

func TestCacheDoesNotStoreUncacheable(t *testing.T) {
	c := NewCache(8, time.Minute, nil)
	k := testKey(8)
	_, f, _ := c.Begin(k)
	c.Complete(f, Outcome{Value: 1, Reason: protocol.FinishCancelled}, nil)
	if _, _, st := c.Begin(k); st != BeginLead {
		t.Fatal("cancelled outcome was cached")
	}
}

func TestKeyOfIgnoresIDAndTrace(t *testing.T) {
	a := query.Spec{ID: 1, Kind: query.KindBFS, Source: 3, Target: 4}
	b := query.Spec{ID: 99, Kind: query.KindBFS, Source: 3, Target: 4, TraceID: 7}
	if KeyOf(a) != KeyOf(b) {
		t.Fatal("cache key must ignore query ID and trace ID")
	}
}
