package serve

import (
	"container/list"
	"iter"
	"slices"
	"sync"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// Key canonicalizes a query spec for result caching: two requests with the
// same key compute the same result regardless of who asked, which query ID
// the engine assigned, or which trace the request belongs to.
type Key struct {
	Kind     query.Kind
	Source   graph.VertexID
	Target   graph.VertexID
	MaxIters int
	Epsilon  float64
}

// KeyOf extracts the canonical cache key of a spec.
func KeyOf(spec query.Spec) Key {
	return Key{
		Kind:     spec.Kind,
		Source:   spec.Source,
		Target:   spec.Target,
		MaxIters: spec.MaxIters,
		Epsilon:  spec.Epsilon,
	}
}

// Outcome is the cacheable portion of a finished query: everything except
// the per-request ID and per-request timing.
type Outcome struct {
	Value      float64
	Reason     protocol.FinishReason
	Supersteps int
	LocalIters int
	Touched    int
	Workers    int
	// EngineLatency is the engine execution time of the original run.
	EngineLatency time.Duration
	// Version is the graph version the original run was pinned at; on a
	// cache hit, the newest committed version the answer is known to hold at.
	Version uint64
	// Blocks is the run's scope as sorted signature blocks
	// (controller.Result.Blocks): what a commit must miss for the answer to
	// outlive it.
	Blocks []int32
}

// Cacheable reports whether a finish reason represents a reusable answer.
// Cancelled and rejected queries carry no answer worth reusing.
func (o Outcome) Cacheable() bool {
	switch o.Reason {
	case protocol.FinishConverged, protocol.FinishEarly, protocol.FinishMaxIters:
		return true
	default:
		return false
	}
}

// BeginState says how a cache lookup resolved.
type BeginState int

// The three lookup outcomes: a stored result, an identical query already
// executing (coalesce onto it), or a miss making the caller the leader.
const (
	BeginHit BeginState = iota
	BeginJoin
	BeginLead
)

// Flight is one in-flight computation of a key. The leader fills it via
// Cache.Complete; joiners wait on Done.
type Flight struct {
	key  Key
	done chan struct{}
	out  Outcome
	err  error
	// leadOnly marks a flight that bypasses the cache (NoCache requests
	// still lead a private flight so the completion path is uniform).
	leadOnly bool
}

// Done is closed when the leader completed (successfully or not).
func (f *Flight) Done() <-chan struct{} { return f.done }

// Result returns the flight outcome; valid after Done is closed.
func (f *Flight) Result() (Outcome, error) { return f.out, f.err }

type entry struct {
	key Key
	out Outcome
	at  time.Time
}

// recentBatches is how many committed batches the cache remembers the
// blocks of: a result is stored only if every batch committed while it ran
// is among them. A read outlasts a commit or two, not sixteen.
const recentBatches = 16

// indexShift groups the blocks the index is kept by. Scopes are runs of
// neighbouring blocks, so eight to a group cuts what every stored answer
// pays eightfold; a commit then checks the few answers sharing a group with
// it for the block itself.
const indexShift = 3

// groupsOf yields the index groups that sorted blocks fall in, each once.
func groupsOf(blocks []int32) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		prev := int32(-1)
		for _, b := range blocks {
			if g := b >> indexShift; g != prev {
				if !yield(g) {
					return
				}
				prev = g
			}
		}
	}
}

// Cache is the serving-layer result cache: LRU bounded, TTL bounded,
// invalidated by query scope — a committed batch evicts exactly the entries
// whose scope holds a vertex it changed the out-edges of — with singleflight
// coalescing of identical in-flight queries. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	clock   func() time.Time
	lru     *list.List // front = most recently used, values are *entry
	entries map[Key]*list.Element
	flights map[Key]*Flight
	// byBlock indexes the entries by the blocks of their scope, so a commit
	// costs what it evicts, not a walk of the cache — by groups of
	// 1<<indexShift blocks, so storing an answer costs an insert per group
	// its scope enters, not per block.
	byBlock map[int32]map[*list.Element]struct{}
	// version is the newest committed version Commit was told of; every
	// entry holds at it. recent[v%recentBatches] are the blocks batch v
	// changed, for the versions in (floor, version].
	version, floor uint64
	recent         [recentBatches][]int32

	// lastSweep throttles the expiry sweep: hit MoveToFront does not
	// refresh an entry's timestamp, so expiry order does not follow LRU
	// order and a sweep must walk the whole list — amortized by running it
	// at most once per ttl/8.
	lastSweep time.Time

	hits, misses, joins, flushes, swept int64
}

// NewCache creates a cache holding up to capacity entries for at most ttl.
// clock may be nil (time.Now).
func NewCache(capacity int, ttl time.Duration, clock func() time.Time) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if ttl <= 0 {
		ttl = time.Minute
	}
	if clock == nil {
		clock = time.Now
	}
	return &Cache{
		cap:     capacity,
		ttl:     ttl,
		clock:   clock,
		lru:     list.New(),
		entries: make(map[Key]*list.Element),
		flights: make(map[Key]*Flight),
		byBlock: make(map[int32]map[*list.Element]struct{}),
	}
}

// Commit tells the cache that version v committed and changed out-edges of
// vertices in blocks only; it returns how many entries that evicted. The
// caller invokes it once per version, in order, before v becomes readable
// (controller.OnCommit), so a hit never reports a version its answer was not
// checked against. A v that is not the next one means batches went unseen
// (the engine started ahead of the cache): everything goes. In-flight
// computations are not interrupted, but new requests no longer coalesce onto
// them — a read-your-writes reader must not be handed a pre-commit answer —
// and their results are stored only if they still hold (see holds).
func (c *Cache) Commit(v uint64, blocks []int32) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v <= c.version {
		return 0
	}
	if v != c.version+1 {
		c.floor = v - 1
		if evicted = c.lru.Len(); evicted > 0 {
			c.lru.Init()
			clear(c.entries)
			clear(c.byBlock)
			c.flushes++
		}
	} else {
		for _, b := range blocks {
			for el := range c.byBlock[b>>indexShift] {
				if _, in := slices.BinarySearch(el.Value.(*entry).out.Blocks, b); in {
					c.remove(el)
					evicted++
				}
			}
		}
	}
	c.version = v
	c.recent[v%recentBatches] = append(c.recent[v%recentBatches][:0], blocks...)
	c.floor = max(c.floor, v-min(v, recentBatches))
	clear(c.flights)
	return evicted
}

// holds reports whether an answer computed at out.Version is still the
// answer at the cache's version: no batch committed since touched its scope.
// Caller holds mu.
func (c *Cache) holds(out Outcome) bool {
	if out.Version < c.floor {
		return false // a batch since is no longer remembered
	}
	for v := out.Version + 1; v <= c.version; v++ {
		for _, b := range c.recent[v%recentBatches] {
			if _, touched := slices.BinarySearch(out.Blocks, b); touched {
				return false
			}
		}
	}
	return true
}

// Begin resolves key: a fresh stored result (BeginHit, with the outcome),
// an identical in-flight query (BeginJoin, wait on the flight), or a miss
// (BeginLead: the caller must execute and call Complete on the flight).
func (c *Cache) Begin(key Key) (Outcome, *Flight, BeginState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*entry)
		if c.clock().Sub(en.at) <= c.ttl {
			c.lru.MoveToFront(el)
			c.hits++
			out := en.out
			out.Version = max(out.Version, c.version)
			return out, nil, BeginHit
		}
		c.remove(el)
	}
	if f, ok := c.flights[key]; ok {
		c.joins++
		return Outcome{}, f, BeginJoin
	}
	f := &Flight{key: key, done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	return Outcome{}, f, BeginLead
}

// Peek reports whether key would resolve without engine work: a fresh
// stored result or an in-flight computation to join. It does not touch
// LRU order or lead a flight.
func (c *Cache) Peek(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		if c.clock().Sub(el.Value.(*entry).at) <= c.ttl {
			return true
		}
	}
	_, ok := c.flights[key]
	return ok
}

// Lead returns a private flight that is not registered for coalescing and
// whose result is never stored — the uniform completion path for requests
// that opted out of caching.
func (c *Cache) Lead() *Flight {
	return &Flight{done: make(chan struct{}), leadOnly: true}
}

// Complete finishes a flight: the result (or error) is published to
// joiners, and a cacheable successful outcome that no commit since its pin
// touched is stored. Must be called exactly once per led flight.
func (c *Cache) Complete(f *Flight, out Outcome, err error) {
	f.out, f.err = out, err
	c.mu.Lock()
	if !f.leadOnly {
		// Only remove the flight we own: a commit may have detached it and
		// someone else now leads a fresh flight for the same key.
		if c.flights[f.key] == f {
			delete(c.flights, f.key)
		}
		if err == nil {
			c.put(f.key, out)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// Store inserts a completed outcome directly — the path for results that
// arrive after their request abandoned the flight (deadline expiry). The
// work is already paid for; ignored, like Complete's, unless the outcome is
// cacheable and still holds.
func (c *Cache) Store(key Key, out Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, out)
}

// put stores a cacheable outcome that still holds under the LRU/cap regime.
// Caller holds mu.
func (c *Cache) put(key Key, out Outcome) {
	if !out.Cacheable() || !c.holds(out) {
		return
	}
	now := c.clock()
	c.sweep(now)
	if el, ok := c.entries[key]; ok {
		c.remove(el)
	}
	el := c.lru.PushFront(&entry{key: key, out: out, at: now})
	c.entries[key] = el
	for g := range groupsOf(out.Blocks) {
		set := c.byBlock[g]
		if set == nil {
			set = make(map[*list.Element]struct{})
			c.byBlock[g] = set
		}
		set[el] = struct{}{}
	}
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back())
	}
}

// remove drops an entry from the list, the key map and the block index.
// Caller holds mu.
func (c *Cache) remove(el *list.Element) {
	en := c.lru.Remove(el).(*entry)
	delete(c.entries, en.key)
	for g := range groupsOf(en.out.Blocks) {
		set := c.byBlock[g]
		if delete(set, el); len(set) == 0 {
			delete(c.byBlock, g)
		}
	}
}

// sweep drops every TTL-expired entry. Without it, an expired entry is
// only removed when its exact key is looked up again — under a shifting
// key population dead entries occupy LRU capacity until displaced,
// silently shrinking the effective cache. Throttled; caller holds mu.
func (c *Cache) sweep(now time.Time) {
	if now.Sub(c.lastSweep) < c.ttl/8 {
		return
	}
	c.lastSweep = now
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		if now.Sub(el.Value.(*entry).at) > c.ttl {
			c.remove(el)
			c.swept++
		}
		el = prev
	}
}

// CacheStats is the cache introspection for /stats.
type CacheStats struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Version is the newest committed version the entries were checked
	// against, which is what a hit reports.
	Version uint64 `json:"version"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Joins   int64  `json:"joins"`
	// Flushes counts whole-cache flushes: commits the cache could not
	// evict by scope for, having missed a version before them.
	Flushes int64 `json:"flushes"`
	Swept   int64 `json:"swept,omitempty"`
}

// Stats returns a consistent snapshot. It also runs the (throttled)
// expiry sweep, so an idle cache sheds expired entries on the /stats and
// /metrics cadence even when no put arrives to piggyback on.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep(c.clock())
	return CacheStats{
		Entries:  c.lru.Len(),
		Capacity: c.cap,
		Version:  c.version,
		Hits:     c.hits,
		Misses:   c.misses,
		Joins:    c.joins,
		Flushes:  c.flushes,
		Swept:    c.swept,
	}
}
