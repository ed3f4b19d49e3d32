package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qgraph/internal/obs"
	"qgraph/internal/protocol"
)

// benchQuery drives POST /query through the full handler stack (decode,
// cache, admission, respond) with an in-memory recorder — the server-side
// cost of one request, no network. The traced/untraced pair bounds the
// per-request price of tracing on the cache-hit fast path, which is what
// the BENCH read_only vs read_only_notrace comparison measures end to end.
func benchQuery(b *testing.B, cfg func(*Config)) {
	s, err := New(func() Config {
		c := Config{Backend: newStubBackend(), GraphID: 1}
		if cfg != nil {
			cfg(&c)
		}
		return c
	}())
	if err != nil {
		b.Fatalf("serve.New: %v", err)
	}
	h := s.Handler()
	body, _ := json.Marshal(QueryRequest{Kind: "sssp", Source: 3, Target: target(5)})

	warm := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	warm.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, warm)
	if w.Code != http.StatusOK {
		b.Fatalf("warmup: %d %s", w.Code, w.Body.String())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
}

func BenchmarkQueryCacheHitNoTrace(b *testing.B) {
	benchQuery(b, func(c *Config) { c.NoTrace = true })
}

func BenchmarkQueryCacheHitTraced(b *testing.B) {
	benchQuery(b, func(c *Config) { c.Obs = obs.New(nil) })
}

// BenchmarkCacheInvalidate is what a commit pays the cache: 4096 entries of
// 32 blocks each, spread over the map of a million vertices, and one batch of
// 8 ops around one place — two adjacent blocks, as a client's writes are.
// The commit path waits for this (controller.OnCommit), so it must cost what
// the batch evicts, not a walk of the cache: at most 50 µs against a commit
// of 0.5 ms. What was evicted is stored again off the clock, so every
// iteration meets a full cache.
func BenchmarkCacheInvalidate(b *testing.B) {
	const entries, scope, universe = 4096, 32, 1 << 14
	c := NewCache(entries, time.Hour, nil)
	rng := rand.New(rand.NewPCG(1, 1))
	outs := make([]Outcome, entries)
	for i := range outs {
		blocks := make([]int32, scope)
		first := int32(rng.IntN(universe - scope))
		for j := range blocks {
			blocks[j] = first + int32(j)
		}
		outs[i] = Outcome{Reason: protocol.FinishConverged, Blocks: blocks}
		c.Store(testKey(i), outs[i])
	}
	evicted := 0
	b.ResetTimer()
	for v := uint64(1); v <= uint64(b.N); v++ {
		at := int32(rng.IntN(universe - 1))
		evicted += c.Commit(v, []int32{at, at + 1})
		b.StopTimer()
		for i := range outs {
			if !c.Peek(testKey(i)) {
				outs[i].Version = v
				c.Store(testKey(i), outs[i])
			}
		}
		b.StartTimer()
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(evicted)/float64(b.N), "evicted/op")
	if b.N >= 100 && perOp > 50*time.Microsecond {
		b.Errorf("a commit costs the cache %v, want at most 50µs", perOp)
	}
}
