package experiments

import (
	"fmt"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/gen"
	"qgraph/internal/metrics"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
)

// Fig6a reproduces Figure 6a: summed latency of the SSSP workload on BW
// per partitioning strategy (paper: Q-cut −43% vs Hash, −22% vs Domain).
func Fig6a(sc Scale) (*Table, error) {
	net, err := bwNet(sc)
	if err != nil {
		return nil, err
	}
	return totalLatency(sc, net, "fig6a", "Summed query latency, SSSP on BW",
		ssspSpecs(net, sc.Queries, sc.Seed),
		"paper: -43% vs hash, -22% vs domain")
}

// Fig6b is Figure 6b: the same on GY (paper: −13% vs Hash, −25% vs
// Domain — balancing dominates on the bigger skewed graph).
func Fig6b(sc Scale) (*Table, error) {
	net, err := gyNet(sc)
	if err != nil {
		return nil, err
	}
	return totalLatency(sc, net, "fig6b", "Summed query latency, SSSP on GY",
		ssspSpecs(net, sc.Queries, sc.Seed),
		"paper: -13% vs hash, -25% vs domain")
}

// Fig6c is Figure 6c: summed latency of the POI workload on BW (paper:
// −50% vs Hash, −28% vs Domain).
func Fig6c(sc Scale) (*Table, error) {
	net, err := bwNet(sc)
	if err != nil {
		return nil, err
	}
	return totalLatency(sc, net, "fig6c", "Summed query latency, POI on BW",
		poiSpecs(net, sc.Queries, sc.Seed),
		"paper: -50% vs hash, -28% vs domain")
}

func totalLatency(sc Scale, net *gen.RoadNet, id, title string, specs []query.Spec, paperNote string) (*Table, error) {
	t := &Table{
		ID: id, Title: title,
		Columns: []string{"strategy", "total_s", "mean_ms", "locality", "vs_hash", "vs_domain"},
	}
	totals := map[string]time.Duration{}
	type row struct {
		name string
		sum  metrics.Summary
	}
	var rows []row
	for _, st := range strategies(net) {
		rec, _, err := runStrategy(sc, net, st, sc.Workers, specs)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", id, st.Name, err)
		}
		s := rec.Summarize()
		totals[st.Name] = s.TotalLatency
		rows = append(rows, row{name: st.Name, sum: s})
	}
	for _, r := range rows {
		vsHash := float64(r.sum.TotalLatency-totals["hash"]) / float64(totals["hash"])
		vsDomain := float64(r.sum.TotalLatency-totals["domain"]) / float64(totals["domain"])
		t.Rows = append(t.Rows, []string{
			r.name,
			fmtDur(r.sum.TotalLatency),
			fmt.Sprintf("%.2f", float64(r.sum.MeanLatency.Microseconds())/1000),
			fmt.Sprintf("%.2f", r.sum.MeanLocality),
			fmtPct(vsHash),
			fmtPct(vsDomain),
		})
	}
	t.Notes = append(t.Notes, paperNote)
	return t, nil
}

// Fig6d reproduces Figure 6d: the hybrid barrier against traditional
// BSP-style global barriers, for Hash and Domain partitioning (paper:
// better partitioning gives 1.7–2.4×; the hybrid barrier a further
// 1.2–1.7× on both).
func Fig6d(sc Scale) (*Table, error) {
	net, err := bwNet(sc)
	if err != nil {
		return nil, err
	}
	specs := ssspSpecs(net, sc.BarrierQueries, sc.Seed)
	t := &Table{
		ID: "fig6d", Title: "Hybrid barrier vs global BSP barrier, SSSP on BW",
		Columns: []string{"partitioning", "barrier", "total_s", "speedup_vs_global"},
	}
	dom := domainPartitioner(net)
	for _, part := range []Strategy{
		{Name: "hash", Partitioner: (strategies(net))[0].Partitioner},
		{Name: "domain", Partitioner: dom},
	} {
		var globalTotal time.Duration
		for _, mode := range []controller.SyncMode{controller.SyncGlobal, controller.SyncHybrid} {
			st := Strategy{Name: part.Name, Partitioner: part.Partitioner, Adapt: false, Mode: mode}
			rec, _, err := runStrategy(sc, net, st, sc.Workers, specs)
			if err != nil {
				return nil, fmt.Errorf("fig6d %s/%s: %w", part.Name, mode, err)
			}
			total := rec.Summarize().TotalLatency
			speedup := "-"
			if mode == controller.SyncGlobal {
				globalTotal = total
			} else if total > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(globalTotal)/float64(total))
			}
			t.Rows = append(t.Rows, []string{part.Name, mode.String(), fmtDur(total), speedup})
		}
	}
	t.Notes = append(t.Notes, "paper: hybrid barrier 1.2-1.7x on both partitionings; domain vs hash 1.7-2.4x")
	return t, nil
}

// hashSnapshot runs part of the SSSP workload on a static Hash-partitioned
// engine and captures the controller's high-level view — the same input
// the adaptive controller would hand to Q-cut.
func hashSnapshot(sc Scale) (qcut.Input, error) {
	net, err := bwNet(sc)
	if err != nil {
		return qcut.Input{}, err
	}
	eng, err := startEngine(sc, net, Strategy{Name: "hash", Partitioner: (strategies(net))[0].Partitioner}, sc.Workers, metrics.NewRecorder())
	if err != nil {
		return qcut.Input{}, err
	}
	defer eng.Close()
	specs := ssspSpecs(net, max(sc.Queries/4, 32), sc.Seed)
	if _, err := eng.RunBatch(specs, sc.Parallel); err != nil {
		return qcut.Input{}, err
	}
	return eng.QcutSnapshot()
}
