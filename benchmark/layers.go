package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/delta"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/qcut"
	"qgraph/internal/query"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
	"qgraph/internal/wal"
	wlgen "qgraph/internal/workload"
)

// The layers phase times public functions of single packages on fixed
// inputs: no seed, no engine, no HTTP. It answers "did this package get
// faster" where `run` answers "did a caller notice". Rates vary with the
// box; allocations per call and the byte, fsync and edge counts repeat
// exactly.

// layerRow is one fixed-input measurement.
type layerRow struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Allocs float64 `json:"allocs_per_call,omitempty"`
	// Counts are the exactly-repeating facts of the input or the output.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// perCall runs f for about budget and returns the mean time of one call.
func perCall(budget time.Duration, f func()) time.Duration {
	f() // page in, fill caches
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		f()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

const layerBudget = 400 * time.Millisecond

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

func cmdLayers(args []string) error {
	fs := flag.NewFlagSet("layers", flag.ExitOnError)
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for layers.json and scratch files")
	_ = fs.Parse(args)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rows, err := layerRows(tmp)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-30s %14.6g %-8s", r.Name, r.Value, r.Unit)
		if r.Allocs > 0 {
			fmt.Printf(" %8.6g allocs/call", r.Allocs)
		}
		keys := make([]string, 0, len(r.Counts))
		for k := range r.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%g", k, r.Counts[k])
		}
		fmt.Println()
	}
	return writeJSON(filepath.Join(*outDir, "layers.json"),
		map[string]any{"schema": 1, "environment": readEnvironment(), "layers": rows})
}

func layerRows(tmp string) ([]layerRow, error) {
	net, err := gen.Road(gen.BWConfig(64))
	if err != nil {
		return nil, err
	}
	g := net.G
	var rows []layerRow

	// graph: a full Dijkstra relaxes every edge of the (strongly connected)
	// map once.
	src := net.Cities[0].Vertex
	d := perCall(layerBudget, func() { graph.Dijkstra(g, src) })
	rows = append(rows, layerRow{Name: "graph.csr_edges_per_s", Value: float64(g.NumEdges()) / d.Seconds(), Unit: "1/s",
		Allocs: testing.AllocsPerRun(3, func() { graph.Dijkstra(g, src) }),
		Counts: map[string]float64{"vertices": float64(g.NumVertices()), "edges": float64(g.NumEdges())}})

	// partition
	centers := make([]graph.Coord, len(net.Cities))
	pops := make([]float64, len(net.Cities))
	for i, c := range net.Cities {
		centers[i], pops[i] = c.Center, c.Pop
	}
	for _, p := range []partition.Partitioner{partition.Hash{}, partition.LDG{}, partition.NewDomain(centers, pops)} {
		var a partition.Assignment
		d := perCall(layerBudget/2, func() { a, err = p.Partition(g, workers) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, layerRow{Name: "partition." + p.Name() + "_ms", Value: ms(d), Unit: "ms",
			Counts: map[string]float64{"edge_cut": float64(partition.EdgeCut(g, a)), "k": workers}})
	}

	rows = append(rows, deltaRows(g)...)
	rows = append(rows, codecRows()...)
	walRows, err := walAndSnapshotRows(tmp, g)
	if err != nil {
		return nil, err
	}
	rows = append(rows, walRows...)
	q, err := qcutRow(net)
	if err != nil {
		return nil, err
	}
	return append(rows, q), nil
}

// weightOps returns n set_weight ops on distinct source vertices.
func weightOps(g *graph.Graph, rng *rand.Rand, n int) []delta.Op {
	ops := make([]delta.Op, 0, n)
	for _, v := range rng.Perm(g.NumVertices()) {
		if len(ops) == n {
			break
		}
		if out := g.Out(graph.VertexID(v)); len(out) > 0 {
			ops = append(ops, delta.Op{Kind: delta.OpSetWeight, From: graph.VertexID(v), To: out[0].To, Weight: out[0].Weight * 2})
		}
	}
	return ops
}

// deltaRows times the overlay at 0, 1 % and 10 % of V patched: applying an
// 8-op batch, reading the out-edges of untouched and of patched vertices,
// and folding the overlay back into CSR.
func deltaRows(g *graph.Graph) []layerRow {
	var rows []layerRow
	rng := rand.New(rand.NewPCG(7, 7))
	batch := weightOps(g, rng, mutateBatchOps)
	var sink int
	for _, pct := range []int{0, 1, 10} {
		view := delta.NewView(g)
		patched := weightOps(g, rng, g.NumVertices()*pct/100)
		if len(patched) > 0 {
			view, _, _ = view.Apply(patched) // ops built from g's own edges always validate
		}
		tag := fmt.Sprintf("_%dpct", pct)
		counts := map[string]float64{"overlay_vertices": float64(view.OverlaySize())}

		d := perCall(layerBudget/4, func() { view.Apply(batch) })
		rows = append(rows, layerRow{Name: "delta.apply_ops_per_s" + tag, Value: mutateBatchOps / d.Seconds(), Unit: "1/s",
			Allocs: testing.AllocsPerRun(10, func() { view.Apply(batch) }), Counts: counts})

		isPatched := make(map[graph.VertexID]bool, len(patched))
		for _, o := range patched {
			isPatched[o.From] = true
		}
		var base, hot []graph.VertexID
		for v := 0; v < g.NumVertices(); v++ {
			if isPatched[graph.VertexID(v)] {
				hot = append(hot, graph.VertexID(v))
			} else {
				base = append(base, graph.VertexID(v))
			}
		}
		outNS := func(vs []graph.VertexID) float64 {
			d := perCall(layerBudget/4, func() {
				for _, v := range vs {
					sink += len(view.Out(v))
				}
			})
			return float64(d) / float64(len(vs))
		}
		rows = append(rows, layerRow{Name: "delta.out_ns_base" + tag, Value: outNS(base), Unit: "ns", Counts: counts})
		if len(hot) > 0 {
			rows = append(rows, layerRow{Name: "delta.out_ns_patched" + tag, Value: outNS(hot), Unit: "ns", Counts: counts})
		}
		if pct == 10 {
			d := perCall(layerBudget/4, func() { view.Compact() })
			rows = append(rows, layerRow{Name: "delta.compact_ms" + tag, Value: ms(d), Unit: "ms", Counts: counts})
		}
	}
	_ = sink
	return rows
}

// codecRows times Encode and Decode of the three frames that make up
// nearly all traffic.
func codecRows() []layerRow {
	vb := &protocol.VertexBatch{Q: 7, Step: 3, From: 1, Entries: make([]protocol.VertexMsg, 256)}
	for i := range vb.Entries {
		vb.Entries[i] = protocol.VertexMsg{To: graph.VertexID(i * 37), Val: float64(i) * 1.5}
	}
	bs := &protocol.BarrierSynch{Q: 7, W: 1, Step: 3, SentBatches: make([]int32, workers),
		Intersections: make([]protocol.IntersectionStat, 64)}
	for i := range bs.Intersections {
		bs.Intersections[i] = protocol.IntersectionStat{Q1: 7, Q2: query.ID(100 + i), Shared: int32(i)}
	}
	eq := &protocol.ExecuteQuery{Spec: query.Spec{ID: 7, Kind: query.KindSSSP, Source: 3, Target: 99}}

	var rows []layerRow
	for _, c := range []struct {
		name string
		m    protocol.Message
	}{{"vertex_batch_256", vb}, {"barrier_synch_64", bs}, {"execute_query", eq}} {
		frame, err := transport.Encode(c.m)
		if err != nil {
			panic(err) // all three are protocol messages the codec knows
		}
		counts := map[string]float64{"frame_bytes": float64(len(frame)), "wire_size": float64(transport.WireSize(c.m))}
		d := perCall(layerBudget/4, func() { transport.Encode(c.m) })
		rows = append(rows, layerRow{Name: "transport.encode_MBps." + c.name, Value: mbps(len(frame), d), Unit: "MB/s",
			Allocs: testing.AllocsPerRun(100, func() { transport.Encode(c.m) }), Counts: counts})
		payload := frame[5:] // after the length prefix and the type byte
		d = perCall(layerBudget/4, func() { transport.Decode(c.m.Type(), payload) })
		rows = append(rows, layerRow{Name: "transport.decode_MBps." + c.name, Value: mbps(len(frame), d), Unit: "MB/s",
			Allocs: testing.AllocsPerRun(100, func() { transport.Decode(c.m.Type(), payload) }), Counts: counts})
	}
	return rows
}

// walAndSnapshotRows times the durable paths on the benchmark's own
// directory, with the fsync policy as shipped.
func walAndSnapshotRows(tmp string, g *graph.Graph) ([]layerRow, error) {
	const batches = 200
	var rows []layerRow
	rng := rand.New(rand.NewPCG(11, 11))
	ops := weightOps(g, rng, mutateBatchOps)

	dir := filepath.Join(tmp, "wal-append")
	w, err := wal.Open(dir, 1)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for v := uint64(1); v <= batches; v++ {
		if err := w.Append(v, ops); err != nil {
			w.Close()
			return nil, err
		}
	}
	d := time.Since(t0)
	st := w.Stats()
	w.Close()
	walCounts := func(st wal.Stats) map[string]float64 {
		return map[string]float64{"batches": float64(st.Appends), "fsyncs": float64(st.Fsyncs),
			"bytes_per_op": float64(st.AppendedBytes) / float64(st.Appends*mutateBatchOps)}
	}
	rows = append(rows, layerRow{Name: "wal.append_us", Value: us(float64(d) / batches), Unit: "us", Counts: walCounts(st)})

	t0 = time.Now()
	tail, err := wal.ReadTail(dir, 1, 0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, layerRow{Name: "wal.read_tail_MBps", Value: mbps(int(st.AppendedBytes), time.Since(t0)), Unit: "MB/s",
		Counts: map[string]float64{"batches": float64(len(tail)), "bytes": float64(st.AppendedBytes)}})

	// Group commit with two batches in flight: the producer enqueues a pair,
	// then waits for both acknowledgements.
	w, err = wal.Open(filepath.Join(tmp, "wal-enqueue"), 1)
	if err != nil {
		return nil, err
	}
	acks := make(chan wal.AppendAck, 2)
	t0 = time.Now()
	for v := uint64(1); v <= batches; v += 2 {
		w.Enqueue(v, ops, acks)
		w.Enqueue(v+1, ops, acks)
		for i := 0; i < 2; i++ {
			if a := <-acks; a.Err != nil {
				w.Close()
				return nil, a.Err
			}
		}
	}
	d = time.Since(t0)
	st = w.Stats()
	w.Close()
	rows = append(rows, layerRow{Name: "wal.enqueue2_us", Value: us(float64(d) / batches), Unit: "us", Counts: walCounts(st)})

	// snapshot
	snapDir := filepath.Join(tmp, "snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	var path string
	d = perCall(layerBudget, func() { path, err = snapshot.WriteFile(snapDir, &snapshot.Snapshot{Version: 1, Graph: g}) })
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	size := map[string]float64{"file_bytes": float64(fi.Size())}
	rows = append(rows, layerRow{Name: "snapshot.write_MBps", Value: mbps(int(fi.Size()), d), Unit: "MB/s", Counts: size})
	d = perCall(layerBudget, func() { _, err = snapshot.Load(path) })
	if err != nil {
		return nil, err
	}
	rows = append(rows, layerRow{Name: "snapshot.load_MBps", Value: mbps(int(fi.Size()), d), Unit: "MB/s", Counts: size})
	return rows, nil
}

// qcutRow times one Q-cut planning run on the controller's view after 128
// hotspot queries over a hash partitioning — the input a first
// repartitioning sees.
func qcutRow(net *gen.RoadNet) (layerRow, error) {
	eng, err := core.Start(core.Config{Workers: 8, Graph: net.G, Partitioner: partition.Hash{}})
	if err != nil {
		return layerRow{}, err
	}
	defer eng.Close()
	rg := wlgen.NewRoadGen(net, 1)
	if _, err := eng.RunBatch(wlgen.Batch(128, rg.SSSP), 16); err != nil {
		return layerRow{}, err
	}
	in, err := eng.QcutSnapshot()
	if err != nil {
		return layerRow{}, err
	}
	in.Deadline = time.Time{} // stop on convergence, not on the clock
	// The controller builds its view from maps; in a fixed order the same
	// input gives the same plan.
	sort.Slice(in.Scopes, func(i, j int) bool { return in.Scopes[i].Q < in.Scopes[j].Q })
	sort.Slice(in.Intersections, func(i, j int) bool {
		a, b := in.Intersections[i], in.Intersections[j]
		return a.Q1 < b.Q1 || a.Q1 == b.Q1 && a.Q2 < b.Q2
	})
	var res qcut.Result
	d := perCall(layerBudget, func() { res = qcut.Run(in) })
	return layerRow{Name: "qcut.plan_ms", Value: ms(d), Unit: "ms", Counts: map[string]float64{
		"queries": float64(len(in.Scopes)), "intersections": float64(len(in.Intersections)),
		"moves": float64(len(res.Moves)), "initial_cost": float64(res.InitialCost), "final_cost": float64(res.FinalCost),
	}}, nil
}
