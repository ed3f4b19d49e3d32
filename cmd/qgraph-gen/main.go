// Command qgraph-gen generates and inspects the synthetic graphs of this
// reproduction (internal/gen: stand-ins for the inputs of Sec. 4.1).
//
//	qgraph-gen -kind road -preset bw -scale 64 -out bw.qgr
//	qgraph-gen -kind social -n 20000 -out social.qgr
//	qgraph-gen -info bw.qgr
//
// With -mutations N it additionally emits a replayable stream of N graph
// update operations (internal/delta stream format) alongside the graph,
// for dynamic-graph benchmarks and tests:
//
//	qgraph-gen -kind road -preset bw -scale 64 -out bw.qgr -mutations 10000
//	# writes bw.qgr and bw.qgr.mut
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"qgraph/internal/delta"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
)

func main() {
	var (
		kind   = flag.String("kind", "road", "graph kind: road | social | knowledge")
		preset = flag.String("preset", "bw", "road preset: bw | gy")
		scale  = flag.Int("scale", 64, "road scale divisor (1 = paper size)")
		n      = flag.Int("n", 20000, "vertex count for social/knowledge graphs")
		seed   = flag.Uint64("seed", 0, "override generator seed")
		out    = flag.String("out", "", "output path (QGR1 binary format)")
		info   = flag.String("info", "", "print statistics of an existing QGR1 file and exit")

		mutations = flag.Int("mutations", 0, "also emit a replayable stream of N update ops")
		mutOut    = flag.String("mutations-out", "", "mutation stream path (default <out>.mut)")
	)
	flag.Parse()

	if *info != "" {
		g, err := graph.LoadFile(*info)
		if err != nil {
			fatal(err)
		}
		printInfo(*info, g)
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: qgraph-gen -kind road|social|knowledge -out FILE, or -info FILE")
		os.Exit(2)
	}

	var g *graph.Graph
	switch *kind {
	case "road":
		var cfg gen.RoadConfig
		switch *preset {
		case "bw":
			cfg = gen.BWConfig(*scale)
		case "gy":
			cfg = gen.GYConfig(*scale)
		default:
			fatal(fmt.Errorf("unknown preset %q", *preset))
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		net, err := gen.Road(cfg)
		if err != nil {
			fatal(err)
		}
		g = net.G
		fmt.Printf("road network: %d junctions, %d segments, %d cities\n",
			g.NumVertices(), g.NumEdges(), len(net.Cities))
		for _, c := range net.Cities[:min(len(net.Cities), 5)] {
			fmt.Printf("  %s pop=%.0f radius=%.1fkm center=(%.1f,%.1f)\n",
				c.Name, c.Pop, c.Radius, c.Center.X, c.Center.Y)
		}
	case "social":
		cfg := gen.DefaultSocialConfig(*n)
		if *seed != 0 {
			cfg.Seed = *seed
		}
		net, err := gen.Social(cfg)
		if err != nil {
			fatal(err)
		}
		g = net.G
		fmt.Printf("social network: %d users, %d edges, %d communities, %d hubs\n",
			g.NumVertices(), g.NumEdges(), len(net.Communities), len(net.Hubs))
	case "knowledge":
		cfg := gen.DefaultKnowledgeConfig(*n)
		if *seed != 0 {
			cfg.Seed = *seed
		}
		net, err := gen.Knowledge(cfg)
		if err != nil {
			fatal(err)
		}
		g = net.G
		fmt.Printf("knowledge graph: %d entities, %d edges, %d topics\n",
			g.NumVertices(), g.NumEdges(), len(net.Topics))
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}

	if err := g.SaveFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *mutations > 0 {
		path := *mutOut
		if path == "" {
			path = *out + ".mut"
		}
		s := *seed
		if s == 0 {
			s = 1
		}
		ops := genMutations(g, *mutations, s)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := delta.WriteOps(f, ops); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d ops)\n", path, len(ops))
	}
}

// genMutations produces a replayable stream of n update ops against g:
// mostly weight churn on existing edges (traffic), some edge additions and
// removals (closures / new segments), and occasional vertex growth. Ops
// are generated against an evolving view so removals and weight updates
// always reference edges that exist at that point of the replay.
func genMutations(g *graph.Graph, n int, seed uint64) []delta.Op {
	rng := rand.New(rand.NewPCG(seed, 0xd1b54a32d192ed03))
	view := delta.NewView(g)
	ops := make([]delta.Op, 0, n)
	// Ops are staged and applied in chunks: View.Apply copies the overlay
	// map per call, so per-op application would be quadratic in n. The
	// view the generator samples from is therefore up to a chunk stale —
	// harmless (a remove drawn against a just-removed edge replays as the
	// same deterministic no-op) — except for vertex ids, which must count
	// staged add_vertex ops to stay unique.
	var pending []delta.Op
	pendingAdds := 0
	flush := func() {
		if len(pending) == 0 {
			return
		}
		nv, _, err := view.Apply(pending)
		if err != nil {
			fatal(fmt.Errorf("generated invalid op batch: %w", err))
		}
		view = nv
		pending = pending[:0]
		pendingAdds = 0
	}
	apply := func(op delta.Op) {
		if op.Kind == delta.OpAddVertex {
			pendingAdds++
		}
		pending = append(pending, op)
		ops = append(ops, op)
		if len(pending) >= 256 {
			flush()
		}
	}
	// randomEdge draws a vertex with out-edges and one of its edges.
	randomEdge := func() (graph.VertexID, graph.Edge, bool) {
		for try := 0; try < 32; try++ {
			v := graph.VertexID(rng.IntN(view.NumVertices()))
			if adj := view.Out(v); len(adj) > 0 {
				return v, adj[rng.IntN(len(adj))], true
			}
		}
		return 0, graph.Edge{}, false
	}
	for len(ops) < n {
		switch x := rng.Float64(); {
		case x < 0.55: // weight churn (e.g. travel-time updates)
			if v, e, ok := randomEdge(); ok {
				w := e.Weight * float32(0.5+rng.Float64()*1.5)
				apply(delta.Op{Kind: delta.OpSetWeight, From: v, To: e.To, Weight: w})
			}
		case x < 0.80: // new edge between random vertices
			u := graph.VertexID(rng.IntN(view.NumVertices()))
			v := graph.VertexID(rng.IntN(view.NumVertices()))
			w := float32(0.1 + rng.Float64()*2)
			if _, e, ok := randomEdge(); ok {
				w = e.Weight // plausible magnitude for this graph
			}
			apply(delta.Op{Kind: delta.OpAddEdge, From: u, To: v, Weight: w})
		case x < 0.92: // edge removal (closure)
			if v, e, ok := randomEdge(); ok {
				apply(delta.Op{Kind: delta.OpRemoveEdge, From: v, To: e.To})
			}
		default: // vertex growth, immediately connected both ways
			nv := graph.VertexID(view.NumVertices() + pendingAdds)
			anchor := graph.VertexID(rng.IntN(view.NumVertices()))
			w := float32(0.1 + rng.Float64()*2)
			apply(delta.Op{Kind: delta.OpAddVertex})
			apply(delta.Op{Kind: delta.OpAddEdge, From: nv, To: anchor, Weight: w})
			apply(delta.Op{Kind: delta.OpAddEdge, From: anchor, To: nv, Weight: w})
		}
	}
	flush()
	return ops
}

func printInfo(path string, g *graph.Graph) {
	fmt.Printf("%s: %d vertices, %d edges", path, g.NumVertices(), g.NumEdges())
	if g.HasCoords() {
		fmt.Printf(", coordinates")
	}
	if g.HasTags() {
		tagged := 0
		for v := 0; v < g.NumVertices(); v++ {
			if g.Tagged(graph.VertexID(v)) {
				tagged++
			}
		}
		fmt.Printf(", %d tagged", tagged)
	}
	fmt.Println()
	deg := make(map[int]int)
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		d := g.OutDegree(graph.VertexID(v))
		deg[d]++
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("max out-degree: %d, reachable from 0: %d\n", maxDeg, graph.ConnectedFrom(g, 0))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qgraph-gen:", err)
	os.Exit(1)
}
