// Route planning (Application 1 of the paper): a mapping service serving
// localized shortest-path queries clustered around urban hotspots, with a
// workload shift (intra-urban → inter-urban) mid-run. The example runs the
// same workload on static Hash partitioning and on adaptive Q-cut and
// reports the latency and locality difference — the paper's headline
// scenario at example scale.
//
//	go run ./examples/routeplanning
package main

import (
	"fmt"
	"log"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/gen"
	"qgraph/internal/metrics"
	"qgraph/internal/partition"
	"qgraph/internal/workload"
)

func main() {
	net, err := gen.Road(gen.BWConfig(256)) // ≈ 7k junctions, 16 cities
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d junctions, %d cities (largest pop %.0f)\n",
		net.G.NumVertices(), len(net.Cities), net.Cities[0].Pop)

	// Workload: 160 intra-urban trips around population hotspots, then 48
	// inter-urban trips after the "evening commute" shift.
	gen := workload.NewRoadGen(net, 7)
	specs := workload.Batch(160, gen.SSSP)
	specs = append(specs, workload.Batch(48, gen.InterUrban)...)

	run := func(name string, adapt bool) metrics.Summary {
		eng, err := core.Start(core.Config{
			Workers:     8,
			Graph:       net.G,
			Partitioner: partition.Hash{},
			Adapt:       adapt,
			Cooldown:    300 * time.Millisecond,
			CheckEvery:  50 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.RunBatch(specs, 16); err != nil {
			log.Fatal(err)
		}
		sum := eng.Recorder().Summarize()
		fmt.Printf("%-14s mean %7.2fms  p95 %7.2fms  locality %.2f  repartitions %d\n",
			name,
			float64(sum.MeanLatency.Microseconds())/1000,
			float64(sum.P95.Microseconds())/1000,
			sum.MeanLocality, eng.RepartitionEpoch())
		return sum
	}

	fmt.Println("\nrunning the same 208-query workload twice:")
	static := run("static hash", false)
	adaptive := run("adaptive qcut", true)

	if adaptive.MeanLatency < static.MeanLatency {
		fmt.Printf("\nadaptive Q-cut reduced mean query latency by %.0f%%\n",
			100*(1-float64(adaptive.MeanLatency)/float64(static.MeanLatency)))
	} else {
		fmt.Printf("\nadaptive Q-cut did not help on this run (short workloads may not amortize repartitioning)\n")
	}
}
