package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
	"qgraph/internal/obs"
	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
	"qgraph/internal/workload"
)

// TestLocalityCountersMatchRecorder runs a batch of SSSP and POI queries
// and cancels one more SSSP mid-flight: per kind, the controller's
// qgraph_controller_{queries,supersteps,local_supersteps}_total equal the
// count and sums over the Recorder's records, so local over all
// supersteps is exactly the Recorder's locality, and the cancelled query
// counts in neither.
func TestLocalityCountersMatchRecorder(t *testing.T) {
	net := testRoad(t)
	o := obs.New(nil)
	// Domain places each city on one worker, so some supersteps are local.
	centers := make([]graph.Coord, len(net.Cities))
	for i, c := range net.Cities {
		centers[i] = c.Center
	}
	eng := startEngine(t, net.G, func(c *Config) {
		c.Partitioner, c.Obs = partition.NewDomain(centers, nil), o
	})

	g := workload.NewRoadGen(net, 5)
	specs := append(workload.Batch(24, g.SSSP), workload.Batch(16, g.POI)...)
	if _, err := eng.RunBatch(specs, 8); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	// The victim, a whole-graph SSSP, is held in its first superstep until
	// the cancel is on the controller's queue, then a millisecond a step.
	victim := query.ID(len(specs) + 1)
	cancelled := make(chan struct{})
	defer faultpoint.Arm(faultpoint.WorkerComputeSlow, func(args ...int) bool {
		if query.ID(args[1]) == victim {
			<-cancelled
			time.Sleep(time.Millisecond)
		}
		return false
	})()
	h, err := eng.Schedule(query.Spec{ID: victim, Kind: query.KindSSSP, Source: 0, Target: graph.NilVertex})
	if err != nil {
		t.Fatal(err)
	}
	eng.Cancel(victim)
	close(cancelled)
	if res := h.Wait(); res.Reason != protocol.FinishCancelled {
		t.Fatalf("victim ended %v after %d supersteps, want cancelled", res.Reason, res.Supersteps)
	}
	// The controller records and counts a query after its caller has the
	// result; once it stopped, both are complete.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	type sums struct{ queries, steps, local int64 }
	recorded := map[string]*sums{"sssp": {}, "poi": {}}
	for _, q := range eng.Recorder().Queries() {
		if query.ID(q.ID) == victim {
			t.Fatalf("the cancelled query was recorded: %+v", q)
		}
		r := recorded[q.Kind]
		r.queries++
		r.steps += int64(q.Supersteps)
		r.local += int64(q.LocalIters)
	}
	var scrape bytes.Buffer
	o.Metrics.WritePrometheus(&scrape)
	for kind, n := range map[string]int64{"sssp": 24, "poi": 16} {
		r := recorded[kind]
		lbl := `kind="` + kind + `"`
		queries := o.Metrics.Counter("qgraph_controller_queries_total", lbl, "").Value()
		steps := o.Metrics.Counter("qgraph_controller_supersteps_total", lbl, "").Value()
		local := o.Metrics.Counter("qgraph_controller_local_supersteps_total", lbl, "").Value()
		if queries != n || r.queries != n {
			t.Errorf("%s: counted %d queries, recorded %d, ran %d", kind, queries, r.queries, n)
		}
		if steps != r.steps || local != r.local || local == 0 || local == steps {
			t.Errorf("%s: counted %d/%d local/all supersteps, recorded %d/%d", kind, local, steps, r.local, r.steps)
		}
		if s := fmt.Sprintf("qgraph_controller_local_supersteps_total{%s} %d\n", lbl, local); !strings.Contains(scrape.String(), s) {
			t.Errorf("/metrics lacks %q", s)
		}
		t.Logf("%s: locality %d/%d = %.3f", kind, local, steps, float64(local)/float64(steps))
	}
}
