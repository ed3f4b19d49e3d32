package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/gen"
	"qgraph/internal/graph"
	"qgraph/internal/obs"
	"qgraph/internal/obs/health"
	"qgraph/internal/partition"
	"qgraph/internal/serve"
	"qgraph/internal/snapshot"
	"qgraph/internal/transport"
)

// workers is k. Two partitions on a two-core box: every cross-partition
// message really crosses a socket, and nothing oversubscribes the cores
// the clients also need.
const workers = 2

// inputs holds the generated graphs. They depend on no seed (the seed
// shapes the operations, not the map) and are written once per process as
// QGR1 files, so every assembly pays graph.LoadFile exactly as qgraphd does.
type inputs struct {
	dir        string
	road       *gen.RoadNet
	roadPath   string
	domain     *partition.Domain // Voronoi cells of the road map's cities
	social     *gen.SocialNet
	socialPath string
}

func newInputs(dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &inputs{dir: dir}, nil
}

func (in *inputs) roadNet() (*gen.RoadNet, string, error) {
	if in.road == nil {
		net, err := gen.Road(gen.BWConfig(64))
		if err != nil {
			return nil, "", err
		}
		in.road, in.roadPath = net, filepath.Join(in.dir, "road.qgr")
		centers := make([]graph.Coord, len(net.Cities))
		pops := make([]float64, len(net.Cities))
		for i, c := range net.Cities {
			centers[i], pops[i] = c.Center, c.Pop
		}
		in.domain = partition.NewDomain(centers, pops)
		if err := net.G.SaveFile(in.roadPath); err != nil {
			return nil, "", err
		}
	}
	return in.road, in.roadPath, nil
}

func (in *inputs) socialNet() (*gen.SocialNet, string, error) {
	if in.social == nil {
		net, err := gen.Social(gen.DefaultSocialConfig(20000))
		if err != nil {
			return nil, "", err
		}
		in.social, in.socialPath = net, filepath.Join(in.dir, "social.qgr")
		if err := net.G.SaveFile(in.socialPath); err != nil {
			return nil, "", err
		}
	}
	return in.social, in.socialPath, nil
}

// graphFile returns the in-memory graph (what the generators and the
// oracle read) and the file the stack loads.
func (in *inputs) graphFile(wl *workload) (*graph.Graph, string, error) {
	if wl.social {
		net, path, err := in.socialNet()
		if err != nil {
			return nil, "", err
		}
		return net.G, path, nil
	}
	net, path, err := in.roadNet()
	if err != nil {
		return nil, "", err
	}
	return net.G, path, nil
}

// stack is one assembled deployment: what `qgraphd -role controller -serve`
// builds, with the k workers in-process.
type stack struct {
	graphID uint64
	eng     *core.Engine
	net     transport.Network
	srv     *serve.Server
	httpSrv *http.Server
	url     string
	// walDir / snapDir are set on durable workloads; the caller removes
	// their parent (durDir) once the durability check has read them.
	durDir, walDir, snapDir string

	tr            *tracer      // nil on the untraced pass
	nc            *netCounters // nil on the untraced pass
	partitionTime time.Duration
	edgeCut       int
}

// graphID derives the base-graph identity the way qgraphd does.
func graphID(path string, g *graph.Graph) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(filepath.Base(path)))
	fmt.Fprintf(h, "|%d|%d", g.NumVertices(), g.NumEdges())
	return h.Sum64()
}

// assemble builds a stack from the graph file and returns once /healthz
// answers 200. The returned duration is setup_s: graph.LoadFile →
// snapshot.LoadLatest (durable workloads) → Partition → core.Start (WAL
// replay inside) → serve.New → listener → first healthy probe.
func assemble(wl *workload, in *inputs, tr *tracer) (*stack, time.Duration, error) {
	_, path, err := in.graphFile(wl)
	if err != nil {
		return nil, 0, err
	}
	st := &stack{tr: tr}
	if wl.durable {
		if st.durDir, err = os.MkdirTemp(in.dir, wl.name+"-"); err != nil {
			return nil, 0, err
		}
		st.walDir, st.snapDir = filepath.Join(st.durDir, "wal"), filepath.Join(st.durDir, "snap")
	}
	ok := false
	defer func() {
		if !ok {
			st.close()
			st.removeDurable()
		}
	}()

	t0 := time.Now()
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, 0, err
	}
	st.graphID = graphID(path, g)
	baseG, baseV := g, uint64(0)
	if wl.durable {
		if err := os.MkdirAll(st.snapDir, 0o755); err != nil {
			return nil, 0, err
		}
		snap, err := snapshot.LoadLatest(st.snapDir)
		if err != nil {
			return nil, 0, err
		}
		if snap != nil {
			baseG, baseV = snap.Graph, snap.Version
		}
	}
	var part partition.Partitioner = partition.Hash{}
	if wl.domain {
		part = in.domain
	}
	tp := time.Now()
	assign, err := part.Partition(baseG, workers)
	if err != nil {
		return nil, 0, err
	}
	st.partitionTime = time.Since(tp)

	// Loopback TCP on every workload: codec and sockets as deployed. The
	// in-process ChanNetwork with DefaultLatency sleeps out its simulated
	// delays, and on a VM those sleeps moved p50 by 18-34 % between runs of
	// one seed (README, "Where this departs").
	if st.net, err = transport.NewTCPNetwork(workers + 1); err != nil {
		return nil, 0, err
	}
	engNet := st.net
	if tr != nil {
		st.nc = newNetCounters()
		engNet = &countingNet{Network: st.net, c: st.nc}
	}
	o := obs.New(nil)
	mon := health.New(health.Config{}, o)
	// Adapt stays off: run-time Q-cut fires or not by timing, and a run it
	// fires in is a different run (README, "Where this departs").
	cfg := core.Config{
		Workers: workers, Graph: baseG, Assignment: assign, BaseVersion: baseV,
		Network: engNet, Obs: o, Monitor: mon,
	}
	if wl.durable {
		cfg.WALDir, cfg.WALGraphID = st.walDir, st.graphID
		cfg.SnapshotDir, cfg.SnapshotKeep = st.snapDir, 2
		cfg.SnapshotEveryOps = wl.snapshotEveryOps
		// Each POST carries mutateBatchOps ops, so every POST seals its own
		// version at once instead of waiting out the commit timer.
		cfg.CommitEvery, cfg.MaxBatchOps = time.Millisecond, mutateBatchOps
	}
	if st.eng, err = core.Start(cfg); err != nil {
		return nil, 0, err
	}

	var backend serve.Backend = st.eng.Controller()
	if tr != nil {
		backend = &tracedBackend{Backend: backend, tr: tr, nc: st.nc}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv, err = serve.New(serve.Config{
		Backend: backend, GraphID: st.graphID,
		Admit:     serve.AdmitConfig{MaxInFlight: 16, MaxQueue: 64},
		CacheSize: 4096, CacheTTL: time.Minute, DefaultTimeout: 30 * time.Second,
		Obs: o, Monitor: mon, NodeID: ln.Addr().String(), Role: "primary",
	})
	if err != nil {
		ln.Close()
		return nil, 0, err
	}
	h := st.srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	st.httpSrv = &http.Server{Handler: h}
	go func() { _ = st.httpSrv.Serve(ln) }() // returns on Shutdown in close

	probe := &http.Client{Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(st.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if time.Since(t0) > 30*time.Second {
			return nil, 0, fmt.Errorf("stack never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	setup := time.Since(t0)
	st.edgeCut = partition.EdgeCut(baseG, assign)
	ok = true
	return st, setup, nil
}

// close stops the HTTP server, drains the serving layer, and stops the
// engine and its network. It is safe on a partly-built stack.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var first error
	if st.httpSrv != nil {
		first = st.httpSrv.Shutdown(ctx)
		st.httpSrv = nil
	}
	if st.srv != nil {
		if err := st.srv.Drain(ctx); err != nil && first == nil {
			first = err
		}
		st.srv = nil
	}
	if st.eng != nil {
		if err := st.eng.Close(); err != nil && first == nil {
			first = err
		}
		st.eng = nil
	}
	if st.net != nil {
		if err := st.net.Close(); err != nil && first == nil {
			first = err
		}
		st.net = nil
	}
	return first
}

func (st *stack) removeDurable() {
	if st.durDir != "" {
		_ = os.RemoveAll(st.durDir)
	}
}

// measureSetup assembles the stack `runs` times cold (fresh directories,
// fresh sockets) and returns the last one still running plus every
// set-up time; the reported setup_s is their median.
func measureSetup(wl *workload, in *inputs, tr *tracer, runs int) (*stack, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		st, d, err := assemble(wl, in, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == runs-1 {
			return st, times, nil
		}
		err = st.close()
		st.removeDurable()
		if err != nil {
			return nil, nil, fmt.Errorf("closing set-up stack: %w", err)
		}
	}
}
