// Knowledge-graph retrieval (Application 3 of the paper): many clients
// issue small retrieval queries against a shared knowledge graph, with
// query hotspots around currently-popular entities that shift over time.
// The example rotates popularity mid-run and shows the adaptive engine
// following the hotspot.
//
//	go run ./examples/knowledgegraph
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
	net, err := gen.Knowledge(gen.KnowledgeConfig{
		NumVertices: 20000, EdgesPerNew: 2,
		TagProb: 0.01, NumTopics: 16, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knowledge graph: %d entities, %d relations, %d popular topics\n",
		net.G.NumVertices(), net.G.NumEdges()/2, len(net.Topics))

	eng, err := core.Start(core.Config{
		Workers:     8,
		Graph:       net.G,
		Partitioner: partition.Hash{},
		Adapt:       true,
		Cooldown:    250 * time.Millisecond,
		CheckEvery:  50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	wgen := workload.NewKnowledgeGen(net, 3)
	phase := func(name string, n int) {
		start := len(eng.Recorder().Queries())
		if _, err := eng.RunBatch(workload.Batch(n, wgen.Retrieve), 16); err != nil {
			log.Fatal(err)
		}
		qs := eng.Recorder().Queries()[start:]
		sum := metrics.SummarizeRecords(qs)
		fmt.Printf("%-18s %3d retrievals: mean %7.2fms, locality %.2f, mean scope %4.0f entities\n",
			name, sum.Count,
			float64(sum.MeanLatency.Microseconds())/1000,
			sum.MeanLocality, sum.MeanTouched)
	}

	fmt.Println("\nphase 1: topics A hot")
	phase("topics A (cold)", 48)
	phase("topics A (warm)", 48)

	// Popularity shifts: the other half of the topics becomes hot. The
	// engine's monitoring window notices the new hotspots and repartitions.
	wgen.Rotate()
	fmt.Println("\nphase 2: popularity shifted to topics B")
	phase("topics B (cold)", 48)
	phase("topics B (warm)", 48)

	fmt.Printf("\nrepartitions: %d\n", eng.RepartitionEpoch())
	fmt.Println("note: preferential-attachment graphs have hub entities that sit in almost")
	fmt.Println("every retrieval scope, so scope-based locality is inherently weaker than on")
	fmt.Println("road networks — exactly the skewed-degree regime the paper defers to future")
	fmt.Println("work (i). The engine still follows the hotspot shift via its monitoring window.")
}
