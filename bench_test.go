// Package qgraph's root benchmarks regenerate every figure of the paper's
// evaluation (one benchmark per figure of Sec. 4) plus the ablations of
// internal/experiments/ablations.go. Each benchmark iteration runs the
// full experiment at QuickScale and reports the figure's headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as
// the reproduction harness. For the richer default-scale tables, use
// cmd/qgraph-bench.
package qgraph

import (
	"strconv"
	"strings"
	"testing"

	"qgraph/internal/experiments"
)

// benchExperiment runs one registered experiment per iteration and
// re-reports its headline numeric column as benchmark metrics.
func benchExperiment(b *testing.B, id string, metric func(*experiments.Table) map[string]float64) {
	r, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := experiments.QuickScale()
	for i := 0; i < b.N; i++ {
		tab, err := r(sc)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == b.N-1 {
			if b.N == 1 {
				b.Logf("\n%s", tab.String())
			}
			if metric != nil {
				for name, v := range metric(tab) {
					b.ReportMetric(v, name)
				}
			}
		}
	}
}

// cell parses the numeric cell at (row, col) of a table, tolerating unit
// suffixes like "1.13x".
func cell(tab *experiments.Table, row, col int) float64 {
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		return 0
	}
	s := strings.TrimSuffix(tab.Rows[row][col], "x")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// strategyColumn extracts column col per strategy row (strategy tables
// order rows hash, hash+qcut, domain, domain+qcut).
func strategyTotals(tab *experiments.Table, col int) map[string]float64 {
	out := map[string]float64{}
	for i, name := range []string{"hash_s", "hashqcut_s", "domain_s", "domainqcut_s"} {
		out[name] = cell(tab, i, col)
	}
	return out
}

// BenchmarkFig5a regenerates Figure 5a (adaptive latency over time, BW).
func BenchmarkFig5a(b *testing.B) {
	benchExperiment(b, "fig5a", func(tab *experiments.Table) map[string]float64 {
		// Normalized latency of hash+qcut in the last intra-urban decile.
		var last float64
		for _, row := range tab.Rows {
			if row[1] == "intra" {
				last, _ = strconv.ParseFloat(row[3], 64)
			}
		}
		return map[string]float64{"hashqcut_vs_hash": last}
	})
}

// BenchmarkFig5b regenerates Figure 5b (adaptive latency over time, GY).
func BenchmarkFig5b(b *testing.B) {
	benchExperiment(b, "fig5b", nil)
}

// BenchmarkFig6a regenerates Figure 6a (summed SSSP latency on BW).
func BenchmarkFig6a(b *testing.B) {
	benchExperiment(b, "fig6a", func(tab *experiments.Table) map[string]float64 {
		return strategyTotals(tab, 1)
	})
}

// BenchmarkFig6b regenerates Figure 6b (summed SSSP latency on GY).
func BenchmarkFig6b(b *testing.B) {
	benchExperiment(b, "fig6b", func(tab *experiments.Table) map[string]float64 {
		return strategyTotals(tab, 1)
	})
}

// BenchmarkFig6c regenerates Figure 6c (summed POI latency on BW).
func BenchmarkFig6c(b *testing.B) {
	benchExperiment(b, "fig6c", func(tab *experiments.Table) map[string]float64 {
		return strategyTotals(tab, 1)
	})
}

// BenchmarkFig6d regenerates Figure 6d (hybrid vs global barriers).
func BenchmarkFig6d(b *testing.B) {
	benchExperiment(b, "fig6d", func(tab *experiments.Table) map[string]float64 {
		// Rows: hash/global, hash/hybrid, domain/global, domain/hybrid.
		return map[string]float64{
			"hash_hybrid_speedup":   cell(tab, 1, 3),
			"domain_hybrid_speedup": cell(tab, 3, 3),
		}
	})
}

// BenchmarkFig6e regenerates Figure 6e (workload imbalance).
func BenchmarkFig6e(b *testing.B) {
	benchExperiment(b, "fig6e", func(tab *experiments.Table) map[string]float64 {
		return map[string]float64{
			"hash_imbalance":     cell(tab, 0, 1),
			"hashqcut_imbalance": cell(tab, 1, 1),
			"domain_imbalance":   cell(tab, 2, 1),
		}
	})
}

// BenchmarkFig6f regenerates Figure 6f (query locality).
func BenchmarkFig6f(b *testing.B) {
	benchExperiment(b, "fig6f", func(tab *experiments.Table) map[string]float64 {
		return map[string]float64{
			"hash_locality":     cell(tab, 0, 1),
			"hashqcut_locality": cell(tab, 1, 1),
			"domain_locality":   cell(tab, 2, 1),
		}
	})
}

// BenchmarkFig6g regenerates Figure 6g (ILS cost trajectory).
func BenchmarkFig6g(b *testing.B) {
	benchExperiment(b, "fig6g", func(tab *experiments.Table) map[string]float64 {
		last := len(tab.Rows) - 1
		return map[string]float64{
			"initial_cost": cell(tab, 0, 2),
			"final_cost":   cell(tab, last, 2),
		}
	})
}

// BenchmarkFig7a regenerates Figure 7a (SSSP scalability over k).
func BenchmarkFig7a(b *testing.B) {
	benchExperiment(b, "fig7a", func(tab *experiments.Table) map[string]float64 {
		// k=8 row (index 2): hash vs hash+qcut.
		return map[string]float64{
			"hash_k8_s":     cell(tab, 2, 1),
			"hashqcut_k8_s": cell(tab, 2, 2),
		}
	})
}

// BenchmarkFig7b regenerates Figure 7b (POI scalability over k).
func BenchmarkFig7b(b *testing.B) {
	benchExperiment(b, "fig7b", nil)
}

// Ablation benchmarks (internal/experiments/ablations.go).

// BenchmarkAblationPerturbation isolates the ILS perturbation subroutine.
func BenchmarkAblationPerturbation(b *testing.B) {
	benchExperiment(b, "abl-perturb", func(tab *experiments.Table) map[string]float64 {
		return map[string]float64{
			"with_cost":    cell(tab, 0, 2),
			"without_cost": cell(tab, 1, 2),
		}
	})
}

// BenchmarkAblationClustering isolates the Karger query clustering.
func BenchmarkAblationClustering(b *testing.B) {
	benchExperiment(b, "abl-cluster", nil)
}

// BenchmarkAblationLocalBarrier isolates the local query barrier.
func BenchmarkAblationLocalBarrier(b *testing.B) {
	benchExperiment(b, "abl-local", func(tab *experiments.Table) map[string]float64 {
		return map[string]float64{
			"global_s":  cell(tab, 0, 1),
			"limited_s": cell(tab, 1, 1),
			"hybrid_s":  cell(tab, 2, 1),
		}
	})
}

// BenchmarkAblationWindow sweeps the monitoring window μ.
func BenchmarkAblationWindow(b *testing.B) {
	benchExperiment(b, "abl-window", nil)
}

// BenchmarkAblationPhi sweeps the locality threshold Φ.
func BenchmarkAblationPhi(b *testing.B) {
	benchExperiment(b, "abl-phi", nil)
}

// BenchmarkAblationBatchSize sweeps the message batch limit.
func BenchmarkAblationBatchSize(b *testing.B) {
	benchExperiment(b, "abl-batch", nil)
}

// BenchmarkAblationReplication evaluates query pinning (future work ii).
func BenchmarkAblationReplication(b *testing.B) {
	benchExperiment(b, "abl-replication", nil)
}
