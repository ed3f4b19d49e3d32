package experiments

import (
	"fmt"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/core"
	"qgraph/internal/gen"
	"qgraph/internal/metrics"
	"qgraph/internal/qcut"
)

// The ablation experiments isolate single design decisions. They are not
// figures of the paper, but each corresponds to a choice the paper
// motivates in prose (Appendix A, Sec. 3.3–3.4).

// AblationPerturbation compares ILS with and without the perturbation
// subroutine on the same snapshot (Appendix A.2: perturbation escapes
// local minima).
func AblationPerturbation(sc Scale) (*Table, error) {
	in, err := hashSnapshot(sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "abl-perturb", Title: "Q-cut ILS with/without perturbation",
		Columns: []string{"variant", "initial_cost", "final_cost", "reduction", "rounds"},
	}
	for _, noPerturb := range []bool{false, true} {
		v := in
		v.NoPerturbation = noPerturb
		v.Deadline = time.Now().Add(qcut.Budget)
		res := qcut.Run(v)
		name := "with-perturbation"
		if noPerturb {
			name = "local-search-only"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", res.InitialCost),
			fmt.Sprintf("%d", res.FinalCost),
			fmtPct(-reduction(res)),
			fmt.Sprintf("%d", res.Rounds),
		})
	}
	return t, nil
}

// AblationClustering compares Q-cut with and without the Karger query
// clustering (Appendix A.1: clustering keeps the successor neighborhood
// small).
func AblationClustering(sc Scale) (*Table, error) {
	in, err := hashSnapshot(sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "abl-cluster", Title: "Q-cut with/without Karger query clustering",
		Columns: []string{"variant", "final_cost", "reduction", "rounds", "elapsed_ms"},
	}
	for _, noCluster := range []bool{false, true} {
		v := in
		v.NoClustering = noCluster
		v.Deadline = time.Now().Add(qcut.Budget)
		start := time.Now()
		res := qcut.Run(v)
		name := "clustered"
		if noCluster {
			name = "per-query"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", res.FinalCost),
			fmtPct(-reduction(res)),
			fmt.Sprintf("%d", res.Rounds),
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/1000),
		})
	}
	return t, nil
}

func reduction(res qcut.Result) float64 {
	if res.InitialCost == 0 {
		return 0
	}
	return 1 - float64(res.FinalCost)/float64(res.InitialCost)
}

// AblationLocalBarrier isolates the local query barrier: hybrid (limited +
// local) vs limited-only vs global, on Domain partitioning where most
// queries are single-worker and the local barrier pays off most.
func AblationLocalBarrier(sc Scale) (*Table, error) {
	net, err := bwNet(sc)
	if err != nil {
		return nil, err
	}
	specs := ssspSpecs(net, sc.BarrierQueries, sc.Seed)
	dom := domainPartitioner(net)
	t := &Table{
		ID: "abl-local", Title: "Barrier modes on Domain partitioning",
		Columns: []string{"barrier", "total_s", "mean_ms"},
	}
	for _, mode := range []controller.SyncMode{controller.SyncGlobal, controller.SyncLimited, controller.SyncHybrid} {
		st := Strategy{Name: "domain", Partitioner: dom, Mode: mode}
		rec, _, err := runStrategy(sc, net, st, sc.Workers, specs)
		if err != nil {
			return nil, fmt.Errorf("abl-local %s: %w", mode, err)
		}
		s := rec.Summarize()
		t.Rows = append(t.Rows, []string{
			mode.String(), fmtDur(s.TotalLatency),
			fmt.Sprintf("%.2f", float64(s.MeanLatency.Microseconds())/1000),
		})
	}
	t.Notes = append(t.Notes, "hybrid = limited barriers + local (no-round-trip) barriers; limited = involved-workers-only")
	return t, nil
}

// AblationWindow sweeps the monitoring window μ (Sec. 3.4: larger windows
// mean more long-term partitioning decisions).
func AblationWindow(sc Scale) (*Table, error) {
	net, err := bwNet(sc)
	if err != nil {
		return nil, err
	}
	specs := ssspSpecs(net, sc.Queries, sc.Seed)
	t := &Table{
		ID: "abl-window", Title: "Monitoring window μ sweep (hash+qcut)",
		Columns: []string{"mu", "total_s", "locality", "repartitions"},
	}
	for _, mu := range []time.Duration{sc.Mu / 8, sc.Mu / 2, sc.Mu, sc.Mu * 4} {
		rec := metrics.NewRecorder()
		eng, err := core.Start(engineCfg(sc, net, true, rec, func(c *core.Config) { c.Mu = mu }))
		if err != nil {
			return nil, err
		}
		if _, err := eng.RunBatch(specs, sc.Parallel); err != nil {
			eng.Close()
			return nil, err
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
		s := rec.Summarize()
		t.Rows = append(t.Rows, []string{
			mu.String(), fmtDur(s.TotalLatency),
			fmt.Sprintf("%.2f", s.MeanLocality),
			fmt.Sprintf("%d", eng.RepartitionEpoch()),
		})
	}
	return t, nil
}

// engineCfg builds the standard experiment engine config with a mutator.
func engineCfg(sc Scale, net *gen.RoadNet, adapt bool, rec *metrics.Recorder, mut func(*core.Config)) core.Config {
	cfg := core.Config{
		Workers:     sc.Workers,
		Graph:       net.G,
		Partitioner: (strategies(net))[0].Partitioner, // hash
		Latency:     sc.Latency,
		Adapt:       adapt,
		Mu:          sc.Mu,
		Cooldown:    sc.Cooldown,
		CheckEvery:  sc.CheckEvery,
		ComputeCost: sc.ComputeCost,
		Recorder:    rec,
		Seed:        sc.Seed,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}
