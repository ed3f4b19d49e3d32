// Package experiments regenerates the figures of the paper's evaluation
// (Sec. 4) that a claim stands behind — Figs. 5, 6a–d and 7 — and four
// ablations of design choices the paper motivates in prose. Each runner
// executes its experiment at a configurable scale and returns a Table with
// the series the paper plots; cmd/qgraph-bench prints them, and README
// "Reproduce the paper's figures" names the claim each one checks.
//
// Scale note: the defaults use scaled-down synthetic road networks and
// query counts so a figure regenerates in seconds to minutes on one
// machine, over a simulated network whose latencies are slept out.
// Absolute numbers differ from the paper — the claims under test are the
// *shapes*: who wins, by roughly what factor, and where crossovers fall.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"qgraph/internal/controller"
	"qgraph/internal/core"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/metrics"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/transport"
	"qgraph/internal/workload"
)

// Scale controls experiment sizes. The zero value is unusable; start from
// DefaultScale (laptop, seconds per figure) or PaperScale.
type Scale struct {
	// BWScale / GYScale divide the paper's vertex counts (1.8M / 11.8M).
	BWScale, GYScale int
	// Queries is the main workload size (paper: 2048); Disturb the
	// disturbance phase (paper: 496); BarrierQueries Fig. 6d's (paper:
	// 64); ScaleQueries Fig. 7's (paper: 1024).
	Queries, Disturb, BarrierQueries, ScaleQueries int
	// Parallel is the number of in-flight queries (paper: 16).
	Parallel int
	// Workers is k for the non-scalability figures (paper: 8).
	Workers int
	// Adaptivity parameters, scaled to the compressed experiment
	// duration; the paper's μ is protocol.DefaultMu. Φ and Q-cut's
	// planning budget are the engine's defaults at every scale.
	Mu         time.Duration
	Cooldown   time.Duration
	CheckEvery time.Duration
	// ComputeCost models per-vertex application work (straggler realism).
	ComputeCost time.Duration
	// Latency is the simulated network.
	Latency transport.Latency
	Seed    uint64
}

// DefaultScale regenerates every figure on one machine in minutes.
func DefaultScale() Scale {
	return Scale{
		BWScale: 64, GYScale: 196,
		Queries: 256, Disturb: 128, BarrierQueries: 48, ScaleQueries: 128,
		Parallel:    16,
		Workers:     8,
		Mu:          45 * time.Second,
		Cooldown:    400 * time.Millisecond,
		CheckEvery:  100 * time.Millisecond,
		ComputeCost: 4 * time.Microsecond,
		Latency:     transport.DefaultLatency(),
		Seed:        1,
	}
}

// QuickScale is a fast smoke scale for tests.
func QuickScale() Scale {
	s := DefaultScale()
	s.BWScale, s.GYScale = 512, 1600
	s.Queries, s.Disturb, s.BarrierQueries, s.ScaleQueries = 64, 16, 16, 32
	s.Mu = 20 * time.Second
	s.Cooldown = 300 * time.Millisecond
	s.CheckEvery = 50 * time.Millisecond
	return s
}

// PaperScale reproduces the paper's full sizes. Runs take hours.
func PaperScale() Scale {
	return Scale{
		BWScale: 1, GYScale: 1,
		Queries: 2048, Disturb: 496, BarrierQueries: 64, ScaleQueries: 1024,
		Parallel:    16,
		Workers:     8,
		Mu:          protocol.DefaultMu,
		Cooldown:    5 * time.Second,
		CheckEvery:  250 * time.Millisecond,
		ComputeCost: 4 * time.Microsecond,
		Latency:     transport.DefaultLatency(),
		Seed:        1,
	}
}

// Table is one regenerated figure: the series the paper plots, as rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// Strategy is one plotted configuration: an initial partitioner plus
// whether adaptive Q-cut runs on top (the paper's Hash, Hash+Qcut, Domain,
// Domain+Qcut).
type Strategy struct {
	Name        string
	Partitioner partition.Partitioner
	Adapt       bool
	Mode        controller.SyncMode
}

// strategies returns the four standard configurations for a road network.
func strategies(net *gen.RoadNet) []Strategy {
	dom := domainPartitioner(net)
	return []Strategy{
		{Name: "hash", Partitioner: partition.Hash{}, Adapt: false},
		{Name: "hash+qcut", Partitioner: partition.Hash{}, Adapt: true},
		{Name: "domain", Partitioner: dom, Adapt: false},
		{Name: "domain+qcut", Partitioner: dom, Adapt: true},
	}
}

func domainPartitioner(net *gen.RoadNet) *partition.Domain {
	centers := make([]graph.Coord, len(net.Cities))
	weights := make([]float64, len(net.Cities))
	for i, c := range net.Cities {
		centers[i] = c.Center
		weights[i] = c.Pop
	}
	return partition.NewDomain(centers, weights)
}

// startEngine launches an engine for one strategy at the given scale.
func startEngine(sc Scale, net *gen.RoadNet, st Strategy, k int, rec *metrics.Recorder) (*core.Engine, error) {
	return core.Start(core.Config{
		Workers:     k,
		Graph:       net.G,
		Partitioner: st.Partitioner,
		Latency:     sc.Latency,
		Mode:        st.Mode,
		Adapt:       st.Adapt,
		Mu:          sc.Mu,
		Cooldown:    sc.Cooldown,
		CheckEvery:  sc.CheckEvery,
		ComputeCost: sc.ComputeCost,
		Recorder:    rec,
		Seed:        sc.Seed,
	})
}

// runStrategy executes specs under one strategy and returns the recorder
// plus the repartition count.
func runStrategy(sc Scale, net *gen.RoadNet, st Strategy, k int, specs []query.Spec) (*metrics.Recorder, int, error) {
	rec := metrics.NewRecorder()
	eng, err := startEngine(sc, net, st, k, rec)
	if err != nil {
		return nil, 0, err
	}
	if _, err := eng.RunBatch(specs, sc.Parallel); err != nil {
		eng.Close()
		return nil, 0, err
	}
	if err := eng.Close(); err != nil {
		return nil, 0, err
	}
	return rec, int(eng.RepartitionEpoch()), nil
}

// bwNet / gyNet build the two evaluation road networks at scale.
func bwNet(sc Scale) (*gen.RoadNet, error) { return gen.Road(gen.BWConfig(sc.BWScale)) }
func gyNet(sc Scale) (*gen.RoadNet, error) { return gen.Road(gen.GYConfig(sc.GYScale)) }

// ssspSpecs / poiSpecs generate hotspot workloads.
func ssspSpecs(net *gen.RoadNet, n int, seed uint64) []query.Spec {
	g := workload.NewRoadGen(net, seed)
	return workload.Batch(n, g.SSSP)
}

func poiSpecs(net *gen.RoadNet, n int, seed uint64) []query.Spec {
	g := workload.NewRoadGen(net, seed)
	return workload.Batch(n, g.POI)
}

// fmtDur renders a duration in seconds with 3 decimals.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// fmtPct renders a ratio as a signed percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }
