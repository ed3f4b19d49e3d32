package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs all four workloads at 1/50 size, traced, and checks what
// a full run relies on: the schema, the answer oracle, the cache
// behaviour each workload is built around, an idle admission queue, and
// layer rows that sum to the client round trip.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	in, err := newInputs(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 1, seconds: 10, trace: true, outDir: dir, scale: 0.02, setupRuns: 1}
	rep := &report{Schema: 1, Seconds: opt.seconds, Reps: 1, Metrics: endToEnd, Workloads: map[string]*workloadReport{}}
	for _, wl := range workloads {
		res, err := runWorkload(wl, in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: failed %d of %d, correct %v: %s", wl.name, res.Failed, res.Attempted, res.Correct, res.Why)
		}
		if res.OracleSamples == 0 {
			t.Errorf("%s: no answers were checked", wl.name)
		}
		for _, def := range endToEnd {
			m, ok := res.EndToEnd[def.Name]
			if def.Name == "commit_p50_ms" && !wl.durable {
				if ok {
					t.Errorf("%s reports commit_p50_ms without commits", wl.name)
				}
				continue
			}
			if !ok || m.Unit != def.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", wl.name, def.Name, m, def.Unit)
			}
		}
		if len(res.Layers) != len(perLayer) {
			t.Errorf("%s: %d layer metrics, want %d", wl.name, len(res.Layers), len(perLayer))
		}
		layer := func(name string) float64 {
			m, ok := res.Layers[name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: layer metric %s = %+v", wl.name, name, m)
			}
			return m.Value
		}
		for _, def := range perLayer {
			layer(def.Name)
		}

		switch hit := layer("serve.cache_hit_ratio"); wl.name {
		case "road_local", "social_pagerank":
			if hit != 0 {
				t.Errorf("%s: cache hit ratio %v, want exactly 0", wl.name, hit)
			}
		case "hot_repeat":
			if hit < 0.999 {
				t.Errorf("hot_repeat: cache hit ratio %v, want >= 0.999", hit)
			}
		}
		if q := layer("serve.queue_wait_ms"); q >= 1 {
			t.Errorf("%s: p99 admission queue wait %v ms, want < 1: the closed loop must not queue", wl.name, q)
		}
		sum := 0.0
		for _, row := range []string{"client.self_us", "http.self_us", "serve.self_us",
			"controller.self_us", "worker.self_us", "delta.self_us", "wal.self_us"} {
			if v := layer(row); v < 0 {
				t.Errorf("%s: %s = %v, a child span outlasted its parent", wl.name, row, v)
			} else {
				sum += v
			}
		}
		if rtt := layer("trace.rtt_us"); math.Abs(sum-rtt) > 0.01*rtt {
			t.Errorf("%s: layer rows sum to %v us, client round trip is %v us", wl.name, sum, rtt)
		}
		if wl.durable && layer("snapshot.restart_ms") <= 0 {
			t.Errorf("%s: the durability check did not run", wl.name)
		}
		if _, err := os.Stat(filepath.Join(dir, wl.name+".trace.json")); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
		wr := &workloadReport{Why: wl.why, Runs: []*runResult{res}}
		wr.fold()
		rep.Workloads[wl.name] = wr
	}

	// The report round-trips through JSON, and compares clean with itself.
	path := filepath.Join(dir, "run.json")
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompare([]string{path, path}); err != nil {
		t.Errorf("a report does not agree with itself: %v", err)
	}
}

func TestVerdict(t *testing.T) {
	qps := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	p50 := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		def        metricDef
		base, cand aggregate
		want       string
	}{
		{qps, aggregate{Median: 100}, aggregate{Median: 95}, "ok"},
		{qps, aggregate{Median: 100}, aggregate{Median: 85}, "regressed"},
		{qps, aggregate{Median: 100}, aggregate{Median: 130}, "ok"},
		{p50, aggregate{Median: 10}, aggregate{Median: 11.5}, "regressed"},
		{p50, aggregate{Median: 10}, aggregate{Median: 9}, "ok"},
		{p50, aggregate{Median: 10, Spread: 0.2}, aggregate{Median: 10.5}, "unresolved"},
	} {
		if _, got := verdict(c.def, c.base, c.cand); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.def.Name, c.base.Median, c.cand.Median, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code from drifting apart.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, spec.Workloads[i].Name, wl.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the code", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, driverEndToEnd())
	same("per_layer", spec.PerLayer, perLayer)
}
