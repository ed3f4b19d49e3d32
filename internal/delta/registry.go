package delta

import (
	"fmt"
	"sync"
)

// Registry tracks the chain of committed View versions that still have
// readers. It is the MVCC bookkeeping behind off-barrier commits: a query
// pins the latest version at admission and computes against that exact
// snapshot while later batches commit concurrently; a version is retired
// (eligible for compaction / GC) only once its last reader unpins and a
// newer version has been published.
//
// Views themselves are immutable, so the registry holds plain pointers —
// retirement just drops the reference and lets the collector reclaim any
// overlay state not shared with newer versions.
//
// All methods are safe for concurrent use: the controller publishes and
// pins on its event loop while stats readers (/stats, /metrics) poll from
// HTTP handlers.
type Registry struct {
	mu      sync.Mutex
	entries map[uint64]*regEntry
	latest  uint64
	retired uint64 // versions retired since construction
	peak    int    // high-water mark of live entries
}

type regEntry struct {
	view *View
	refs int
}

// NewRegistry starts a registry with v as the sole, latest version.
func NewRegistry(v *View) *Registry {
	r := &Registry{entries: map[uint64]*regEntry{}, latest: v.Version(), peak: 1}
	r.entries[v.Version()] = &regEntry{view: v}
	return r
}

// Publish records view as the new latest version. Versions must be
// published in increasing order (the commit pipeline assigns them
// contiguously); publishing an older or equal version is a programming
// error and panics loudly rather than corrupting the chain.
func (r *Registry) Publish(view *View) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := view.Version()
	if v <= r.latest {
		panic(fmt.Sprintf("delta: registry publish v%d not after latest v%d", v, r.latest))
	}
	prev := r.latest
	r.entries[v] = &regEntry{view: view}
	r.latest = v
	// The previous latest loses its implicit liveness; retire it now if
	// no reader pinned it.
	if e := r.entries[prev]; e != nil && e.refs == 0 {
		delete(r.entries, prev)
		r.retired++
	}
	if n := len(r.entries); n > r.peak {
		r.peak = n
	}
}

// Pin takes a read reference on version v and returns its view. It fails
// if v was never published or already retired — callers pin at admission
// time, when the version they saw as latest is guaranteed live.
func (r *Registry) Pin(v uint64) (*View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[v]
	if e == nil {
		return nil, fmt.Errorf("delta: version %d not in registry (latest %d)", v, r.latest)
	}
	e.refs++
	return e.view, nil
}

// Unpin releases a reference taken by Pin. The version is retired once
// its refcount reaches zero, unless it is still the latest (the next
// query will pin it). Unpinning an unknown version is a no-op: recovery
// resets drop all pins wholesale and individual finishes may race that.
func (r *Registry) Unpin(v uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[v]
	if e == nil {
		return
	}
	if e.refs > 0 {
		e.refs--
	}
	if e.refs == 0 && v != r.latest {
		delete(r.entries, v)
		r.retired++
	}
}

// UnpinAll drops every outstanding pin and retires everything but the
// latest version. Recovery uses it: in-flight queries are abandoned and
// restarted against the current version, so their old snapshots are dead.
func (r *Registry) UnpinAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for v := range r.entries {
		if v != r.latest {
			delete(r.entries, v)
			r.retired++
		} else {
			r.entries[v].refs = 0
		}
	}
}

// Latest returns the most recently published view.
func (r *Registry) Latest() *View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[r.latest].view
}

// LatestVersion returns the most recently published version number.
func (r *Registry) LatestVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest
}

// RegistryStats is a point-in-time snapshot for /stats and /metrics.
type RegistryStats struct {
	Live         int    `json:"live_versions"`  // versions currently held
	Pinned       int    `json:"pinned_readers"` // outstanding read pins
	Latest       uint64 `json:"latest_version"`
	OldestPinned uint64 `json:"oldest_pinned"` // 0 when nothing is pinned
	Retired      uint64 `json:"retired_versions"`
	Peak         int    `json:"peak_live_versions"`
}

// Stats reports the registry's current shape. OldestPinned is the
// compaction floor: versions below it have no readers left.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistryStats{
		Live:    len(r.entries),
		Latest:  r.latest,
		Retired: r.retired,
		Peak:    r.peak,
	}
	for v, e := range r.entries {
		if e.refs > 0 {
			s.Pinned += e.refs
			if s.OldestPinned == 0 || v < s.OldestPinned {
				s.OldestPinned = v
			}
		}
	}
	return s
}
