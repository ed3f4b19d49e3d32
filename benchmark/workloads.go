package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"qgraph/internal/delta"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/query"
	"qgraph/internal/serve"
	wlgen "qgraph/internal/workload"
)

const (
	// hotPool is hot_repeat's repeated-query pool and mixedPool mixed_rw's:
	// both far below the 4096-entry cache, so a miss is never a capacity
	// miss. mixed_rw's reads all execute today (every commit flushes the
	// cache), so its latency is the pool's mean query cost; 64 draws of
	// that heavy-tailed cost moved p50 by 23 % from seed to seed.
	hotPool   = 64
	mixedPool = 256
	// poolStride walks a pool; coprime with both pool sizes, so every entry
	// is visited equally often.
	poolStride = 7
	// mutateBatchOps and readsPerMutate fix mixed_rw's 1:8 write:read mix.
	mutateBatchOps = 8
	readsPerMutate = 8
	// warmShare of every client's operations run untimed first.
	warmShare = 0.05
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	why  string

	social  bool // social graph; otherwise the road graph
	domain  bool // partition.Domain over the cities; otherwise partition.Hash
	durable bool // WAL + snapshot directories, with mutations in the mix
	// snapshotEveryOps arms the checkpoint cutter on durable workloads.
	snapshotEveryOps int

	// opsPerSecond sizes the fixed operation list: a run issues
	// opsPerSecond × seconds operations however long they take, so the
	// work is the same on every commit. The rates are what the reference
	// box sustains at the seed tree, rounded down.
	opsPerSecond int
	// gen builds each client's operation list and any untimed priming
	// operations (hot_repeat's cache fill).
	gen func(in *inputs, seed uint64, clients, n int) (*plan, error)
}

// op is one HTTP operation, encoded ahead of time so that generation cost
// stays out of the measurement.
type op struct {
	body []byte
	spec query.Spec // reads
	ops  []delta.Op // writes (nil on reads)
}

func (o *op) mutate() bool { return o.ops != nil }

// plan is the generated input of one run.
type plan struct {
	prime     []op   // issued once by client 0 before anything else, untimed
	perClient [][]op // each client's closed loop, in order
}

var workloads = []*workload{
	{
		name: "road_local", domain: true, opsPerSecond: 400, gen: genRoadLocal,
		why: "distinct localized SSSP/POI on the static city partitioning Q-cut aims for: ~14 small supersteps, so local iterations and barrier rounds dominate and compute does not; cache and WAL idle",
	},
	{
		name: "social_pagerank", social: true, opsPerSecond: 145, gen: genSocialPageRank,
		why: "distinct personalised PageRank over loopback TCP: few wide supersteps, so worker compute, message buffers and the codec dominate; barrier latency does not",
	},
	{
		name: "hot_repeat", opsPerSecond: 34000, gen: genHotRepeat,
		why: "64 repeated queries, all result-cache hits: the engine is idle, so this is serve + HTTP + per-request obs cost and nothing else",
	},
	{
		name: "mixed_rw", durable: true, snapshotEveryOps: 500, opsPerSecond: 220, gen: genMixedRW,
		why: "1 durable 8-op commit per 8 pooled reads: the cache under writes, reads through the delta overlay, WAL fsync and the snapshot cutter",
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// queryBody encodes spec as a POST /query body.
func queryBody(spec query.Spec) []byte {
	req := serve.QueryRequest{
		Kind: spec.Kind.String(), Source: int64(spec.Source),
		MaxIters: spec.MaxIters, Epsilon: spec.Epsilon,
	}
	if spec.Target != graph.NilVertex {
		t := int64(spec.Target)
		req.Target = &t
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of numbers and strings always encodes
	}
	return b
}

func readOp(spec query.Spec) op { return op{body: queryBody(spec), spec: spec} }

// dealOut distributes ops round-robin over the clients.
func dealOut(ops []op, clients int) [][]op {
	per := make([][]op, clients)
	for i, o := range ops {
		per[i%clients] = append(per[i%clients], o)
	}
	return per
}

// distinctRoadQueries draws n hotspot queries, 80 % intra-urban SSSP and
// 20 % POI, dropping any whose cache key was drawn before — so a run of
// them has a result-cache hit ratio of exactly 0.
func distinctRoadQueries(net *gen.RoadNet, seed uint64, n int) ([]query.Spec, error) {
	rg := wlgen.NewRoadGen(net, seed)
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	seen := make(map[serve.Key]bool, n)
	out := make([]query.Spec, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 50*n+1000 {
			return nil, fmt.Errorf("only %d distinct road queries in %d draws, want %d", len(out), tries, n)
		}
		var spec query.Spec
		if rng.Float64() < 0.8 {
			spec = rg.SSSP()
		} else {
			spec = rg.POI()
		}
		if spec.Source == spec.Target || seen[serve.KeyOf(spec)] {
			continue
		}
		seen[serve.KeyOf(spec)] = true
		out = append(out, spec)
	}
	return out, nil
}

func genRoadLocal(in *inputs, seed uint64, clients, n int) (*plan, error) {
	net, _, err := in.roadNet()
	if err != nil {
		return nil, err
	}
	ops, err := roadReads(net, seed, n)
	if err != nil {
		return nil, err
	}
	return &plan{perClient: dealOut(ops, clients)}, nil
}

func genSocialPageRank(in *inputs, seed uint64, clients, n int) (*plan, error) {
	net, _, err := in.socialNet()
	if err != nil {
		return nil, err
	}
	if n > net.G.NumVertices()/2 {
		return nil, fmt.Errorf("social_pagerank: %d distinct seeds wanted from %d vertices", n, net.G.NumVertices())
	}
	sg := wlgen.NewSocialGen(net, seed)
	seen := make(map[graph.VertexID]bool, n)
	ops := make([]op, 0, n)
	for len(ops) < n {
		spec := sg.PageRank() // MaxIters 20, Epsilon 1e-4
		if seen[spec.Source] {
			continue
		}
		seen[spec.Source] = true
		ops = append(ops, readOp(spec))
	}
	return &plan{perClient: dealOut(ops, clients)}, nil
}

// strided returns n reads walking pool from position start.
func strided(pool []op, start, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = pool[((start+i)*poolStride)%len(pool)]
	}
	return out
}

// roadReads returns n distinct hotspot queries as read operations.
func roadReads(net *gen.RoadNet, seed uint64, n int) ([]op, error) {
	specs, err := distinctRoadQueries(net, seed, n)
	if err != nil {
		return nil, err
	}
	pool := make([]op, len(specs))
	for i, s := range specs {
		pool[i] = readOp(s)
	}
	return pool, nil
}

func genHotRepeat(in *inputs, seed uint64, clients, n int) (*plan, error) {
	net, _, err := in.roadNet()
	if err != nil {
		return nil, err
	}
	pool, err := roadReads(net, seed, hotPool)
	if err != nil {
		return nil, err
	}
	return &plan{prime: pool, perClient: dealOut(strided(pool, 0, n), clients)}, nil
}

// genMixedRW builds, per client, groups of one 8-op mutation batch and
// eight pooled reads. Mutations stay within 2 km of the most populous
// city; client c only ever mutates out-edges of its own share of those
// vertices, so batches of different clients commute and the oracle can
// rebuild any committed version from the acknowledged batches alone.
// Only edges a client added earlier are removed, which keeps the map
// connected.
func genMixedRW(in *inputs, seed uint64, clients, n int) (*plan, error) {
	net, _, err := in.roadNet()
	if err != nil {
		return nil, err
	}
	pool, err := roadReads(net, seed, mixedPool)
	if err != nil {
		return nil, err
	}
	big := net.Cities[0]
	for _, c := range net.Cities[1:] {
		if c.Pop > big.Pop {
			big = c
		}
	}
	near := net.Index.Within(big.Center, 2.0)
	if len(near) < 16*clients {
		return nil, fmt.Errorf("mixed_rw: only %d vertices within 2 km of %s", len(near), big.Name)
	}
	rng := rand.New(rand.NewPCG(seed, 0xd1b54a32d192ed03))
	groups := max(n/(1+readsPerMutate), clients)
	per := make([][]op, clients)
	added := make([][][2]graph.VertexID, clients) // edges each client added and has not removed
	reads := 0
	for g := 0; g < groups; g++ {
		c := g % clients
		batch := make([]delta.Op, 0, mutateBatchOps)
		wire := make([]serve.MutateOp, 0, mutateBatchOps)
		for len(batch) < mutateBatchOps {
			// Client c owns near[c], near[c+clients], ...
			from := near[c+clients*rng.IntN((len(near)-c+clients-1)/clients)]
			var o delta.Op
			switch r := rng.Float64(); {
			case r < 0.2 && len(added[c]) > 0:
				i := rng.IntN(len(added[c]))
				e := added[c][i]
				added[c][i] = added[c][len(added[c])-1]
				added[c] = added[c][:len(added[c])-1]
				o = delta.Op{Kind: delta.OpRemoveEdge, From: e[0], To: e[1]}
			case r < 0.5:
				to := near[rng.IntN(len(near))]
				if to == from {
					continue
				}
				// Travel time at 50 km/h, like the generator's local roads.
				w := float32(net.G.Coord(from).Dist(net.G.Coord(to)) / 50 * 3600)
				o = delta.Op{Kind: delta.OpAddEdge, From: from, To: to, Weight: w}
				added[c] = append(added[c], [2]graph.VertexID{from, to})
			default:
				out := net.G.Out(from)
				if len(out) == 0 {
					continue
				}
				e := out[rng.IntN(len(out))]
				o = delta.Op{Kind: delta.OpSetWeight, From: from, To: e.To,
					Weight: e.Weight * float32(0.5+1.5*rng.Float64())}
			}
			batch = append(batch, o)
			wire = append(wire, serve.MutateOp{Op: o.Kind.String(),
				From: int64(o.From), To: int64(o.To), Weight: float64(o.Weight)})
		}
		body, err := json.Marshal(serve.MutateRequest{Ops: wire})
		if err != nil {
			return nil, err
		}
		per[c] = append(per[c], op{body: body, ops: batch})
		per[c] = append(per[c], strided(pool, reads, readsPerMutate)...)
		reads += readsPerMutate
	}
	return &plan{perClient: per}, nil
}
