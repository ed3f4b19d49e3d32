package serve

import (
	"container/list"
	"sync"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// Key canonicalizes a query spec for result caching: two requests with the
// same key compute the same result regardless of who asked or which query
// ID the engine assigned. Home pinning is an execution hint, not part of
// the semantic identity, so it is deliberately excluded.
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

// Epoch is the validity domain of cached results: a different base graph,
// a committed mutation batch (graph version bump), or a controller
// repartition opens a new epoch and flushes the cache. Version is the
// live counter streaming updates advance at every commit — the
// serving layer reads it before each lookup, so no result cached under an
// older topology survives a commit. (A repartition does not change query
// answers, but it does change every execution-side statistic.)
type Epoch struct {
	Graph       uint64 `json:"graph"`       // identity of the loaded base graph
	Version     uint64 `json:"version"`     // committed mutation batches
	Repartition int64  `json:"repartition"` // executed repartition barriers
}

// newerThan reports whether e supersedes old. Both live counters are
// monotone, so any strictly smaller counter marks a stale reader racing a
// fresher request. Graph ids carry no order, so a different id alone must
// NOT supersede: two readers racing across a base-graph swap would
// otherwise ping-pong SetEpoch and flush the cache on every request. The
// monotone counters tie-break instead — a graph transition only lands
// together with counter progress, which orders any race deterministically
// (one direction wins, the other is stale) — and a same-counter id change
// is one-way: the incumbent epoch keeps the cache.
func (e Epoch) newerThan(old Epoch) bool {
	if e.Version != old.Version {
		return e.Version > old.Version
	}
	return e.Repartition > old.Repartition
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
	// Version is the graph version the original run was pinned at.
	Version uint64
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
	key   Key
	epoch Epoch
	done  chan struct{}
	out   Outcome
	err   error
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

// Cache is the serving-layer result cache: LRU bounded, TTL bounded,
// flushed whole on epoch change, with singleflight coalescing of identical
// in-flight queries. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	clock   func() time.Time
	epoch   Epoch
	lru     *list.List // front = most recently used, values are *entry
	entries map[Key]*list.Element
	flights map[Key]*Flight

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
	}
}

// SetEpoch moves the cache to epoch e, flushing all stored results if it
// advanced past the current epoch. Returns true when a flush happened.
// The repartition counter is monotone, so a smaller value is a stale
// reader racing a fresher request — ignored rather than regressing the
// epoch and spuriously flushing what the fresher epoch cached. In-flight
// computations are not interrupted, but their results are discarded on
// completion (their recorded epoch no longer matches).
func (c *Cache) SetEpoch(e Epoch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.newerThan(c.epoch) {
		return false
	}
	c.epoch = e
	// Detach in-flight computations too: new requests must not coalesce
	// onto pre-epoch executions (their leaders still Complete the old
	// Flight for the joiners already attached, but nothing stores it and
	// nobody new joins it).
	if len(c.flights) > 0 {
		c.flights = make(map[Key]*Flight)
	}
	if c.lru.Len() == 0 {
		return false
	}
	c.lru.Init()
	c.entries = make(map[Key]*list.Element)
	c.flushes++
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
			return en.out, nil, BeginHit
		}
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	if f, ok := c.flights[key]; ok {
		c.joins++
		return Outcome{}, f, BeginJoin
	}
	f := &Flight{key: key, epoch: c.epoch, done: make(chan struct{})}
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
// joiners, and a cacheable successful outcome from the current epoch is
// stored. Must be called exactly once per led flight.
func (c *Cache) Complete(f *Flight, out Outcome, err error) {
	f.out, f.err = out, err
	c.mu.Lock()
	if !f.leadOnly {
		// Only remove the flight we own: an epoch flush may have replaced
		// it with a fresh flight for the same key led by someone else.
		if c.flights[f.key] == f {
			delete(c.flights, f.key)
		}
		if err == nil && out.Cacheable() && f.epoch == c.epoch {
			c.put(f.key, out)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// Store inserts a completed outcome directly — the path for results that
// arrive after their request abandoned the flight (deadline expiry). The
// work is already paid for; ignored unless epoch still matches and the
// outcome is cacheable.
func (c *Cache) Store(key Key, epoch Epoch, out Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch == c.epoch && out.Cacheable() {
		c.put(key, out)
	}
}

// put stores an outcome under the LRU/cap regime. Caller holds mu.
func (c *Cache) put(key Key, out Outcome) {
	now := c.clock()
	c.sweep(now)
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*entry)
		en.out, en.at = out, now
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, out: out, at: now})
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*entry).key)
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
		en := el.Value.(*entry)
		if now.Sub(en.at) > c.ttl {
			c.lru.Remove(el)
			delete(c.entries, en.key)
			c.swept++
		}
		el = prev
	}
}

// CacheStats is the cache introspection for /stats.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Epoch    Epoch `json:"epoch"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Joins    int64 `json:"joins"`
	Flushes  int64 `json:"flushes"`
	Swept    int64 `json:"swept,omitempty"`
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
		Epoch:    c.epoch,
		Hits:     c.hits,
		Misses:   c.misses,
		Joins:    c.joins,
		Flushes:  c.flushes,
		Swept:    c.swept,
	}
}
