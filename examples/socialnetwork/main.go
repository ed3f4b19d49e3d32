// Social network analysis (Application 2 of the paper): users analyse
// their personal social circles — overlapping, localized queries with
// computational hotspots around popular accounts. The example runs
// localized personalized PageRank (the paper's future-work item (i)) and
// friend-circle explorations concurrently on a shared social graph.
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/gen"
	"qgraph/internal/partition"
	"qgraph/internal/query"
	"qgraph/internal/workload"
)

func main() {
	net, err := gen.Social(gen.SocialConfig{
		NumVertices: 12000, NumCommunities: 24, ZipfS: 0.8,
		IntraDegree: 12, InterDegree: 1.5,
		NumHubs: 8, HubDegree: 96, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph: %d users, %d friendships, %d communities, %d celebrity hubs\n",
		net.G.NumVertices(), net.G.NumEdges()/2, len(net.Communities), len(net.Hubs))

	eng, err := core.Start(core.Config{
		Workers:     8,
		Graph:       net.G,
		Partitioner: partition.Hash{},
		Adapt:       true,
		Cooldown:    300 * time.Millisecond,
		CheckEvery:  50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Mixed workload: 2/3 influence analyses (localized PageRank seeded at
	// users and hubs), 1/3 three-hop circle explorations.
	wgen := workload.NewSocialGen(net, 9)
	var specs []queuedSpec
	for i := 0; i < 96; i++ {
		if i%3 == 2 {
			specs = append(specs, queuedSpec{"circle", wgen.Circle(3)})
		} else {
			specs = append(specs, queuedSpec{"pagerank", wgen.PageRank()})
		}
	}

	type outcome struct {
		kind    string
		touched int
		latency time.Duration
	}
	var results []outcome
	inflight := make([]*core.Handle, 0, 16)
	kinds := map[int64]string{}
	flush := func() {
		for _, h := range inflight {
			res := h.Wait()
			results = append(results, outcome{
				kind: kinds[int64(res.Q)], touched: res.Touched, latency: res.Latency,
			})
		}
		inflight = inflight[:0]
	}
	for _, qs := range specs {
		h, err := eng.Schedule(qs.spec)
		if err != nil {
			log.Fatal(err)
		}
		kinds[int64(qs.spec.ID)] = qs.kind
		inflight = append(inflight, h)
		if len(inflight) == 16 {
			flush()
		}
	}
	flush()

	byKind := map[string][]outcome{}
	for _, r := range results {
		byKind[r.kind] = append(byKind[r.kind], r)
	}
	for _, kind := range []string{"pagerank", "circle"} {
		rs := byKind[kind]
		sort.Slice(rs, func(i, j int) bool { return rs[i].latency < rs[j].latency })
		var totalTouched int
		for _, r := range rs {
			totalTouched += r.touched
		}
		fmt.Printf("%-9s %3d queries: median latency %8s, mean scope %5d users\n",
			kind, len(rs), rs[len(rs)/2].latency.Round(100_000), totalTouched/len(rs))
	}
	sum := eng.Recorder().Summarize()
	fmt.Printf("\noverall: mean latency %s, mean locality %.2f, %d repartitions\n",
		sum.MeanLatency.Round(100_000), sum.MeanLocality, eng.RepartitionEpoch())
}

// queuedSpec pairs a scheduled query with its human-readable kind.
type queuedSpec struct {
	kind string
	spec query.Spec
}
