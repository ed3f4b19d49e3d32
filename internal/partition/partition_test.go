package partition

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"qgraph/internal/graph"
)

// gridGraph builds an nx×ny undirected grid with coordinates.
func gridGraph(nx, ny int) *graph.Graph {
	b := graph.NewBuilder(nx * ny)
	coords := make([]graph.Coord, nx*ny)
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*nx + x) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			coords[id(x, y)] = graph.Coord{X: float32(x), Y: float32(y)}
			if x+1 < nx {
				b.AddBiEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < ny {
				b.AddBiEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	b.SetCoords(coords)
	return b.MustBuild()
}

// TestPartitionersTotal is the fundamental property: every partitioner
// assigns every vertex to exactly one valid worker.
func TestPartitionersTotal(t *testing.T) {
	g := gridGraph(20, 20)
	dom := NewDomain([]graph.Coord{{X: 2, Y: 2}, {X: 17, Y: 3}, {X: 9, Y: 16}}, []float64{5, 3, 1})
	for _, p := range []Partitioner{Hash{}, LDG{}, dom} {
		for _, k := range []int{1, 2, 3, 8, 16} {
			a, err := p.Partition(g, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			if len(a) != g.NumVertices() {
				t.Fatalf("%s k=%d: covers %d vertices", p.Name(), k, len(a))
			}
			if err := a.Validate(k); err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
		}
	}
}

// TestHashBalance: hash partitions are near-perfectly balanced.
func TestHashBalance(t *testing.T) {
	g := gridGraph(50, 50)
	for _, k := range []int{2, 4, 8, 16} {
		a, err := Hash{}.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if imb := Imbalance(a, k); imb > 0.15 {
			t.Fatalf("k=%d: hash imbalance %.3f", k, imb)
		}
	}
}

// TestDomainLocality: on a grid with separated hotspots, Domain cuts far
// fewer edges than Hash — the locality/balance trade the evaluation
// explores.
func TestDomainLocality(t *testing.T) {
	g := gridGraph(40, 40)
	centers := []graph.Coord{{X: 5, Y: 5}, {X: 35, Y: 5}, {X: 5, Y: 35}, {X: 35, Y: 35}}
	dom := NewDomain(centers, nil)
	k := 4
	da, err := dom.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := Hash{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	dcut, hcut := EdgeCut(g, da), EdgeCut(g, ha)
	if dcut*10 > hcut {
		t.Fatalf("domain cut %d not ≪ hash cut %d", dcut, hcut)
	}
}

// TestDomainSkewedWeights: with skewed hotspot weights and fewer workers
// than hotspots, heavy hotspots land alone (LPT packing).
func TestDomainSkewedWeights(t *testing.T) {
	g := gridGraph(30, 30)
	centers := []graph.Coord{{X: 5, Y: 15}, {X: 15, Y: 15}, {X: 25, Y: 15}}
	dom := NewDomain(centers, []float64{100, 1, 1})
	a, err := dom.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy hotspot's worker must differ from the two light ones'.
	heavy := a[graph.VertexID(15*30+5)]
	light1 := a[graph.VertexID(15*30+15)]
	light2 := a[graph.VertexID(15*30+25)]
	if light1 != light2 || heavy == light1 {
		t.Fatalf("LPT packing wrong: heavy=%d light=%d,%d", heavy, light1, light2)
	}
}

func TestDomainRequiresCoords(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	g := b.MustBuild()
	dom := NewDomain([]graph.Coord{{}}, nil)
	if _, err := dom.Partition(g, 2); err == nil {
		t.Fatal("coordinate-less graph accepted")
	}
}

// TestLDGBalanceAndLocality: LDG respects its capacity slack and beats
// Hash on edge-cut.
func TestLDGBalanceAndLocality(t *testing.T) {
	g := gridGraph(40, 40)
	k := 8
	a, err := LDG{Slack: 0.1}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if imb := Imbalance(a, k); imb > 0.15 {
		t.Fatalf("LDG imbalance %.3f exceeds slack", imb)
	}
	ha, _ := Hash{}.Partition(g, k)
	if EdgeCut(g, a) >= EdgeCut(g, ha) {
		t.Fatalf("LDG cut %d not better than hash cut %d", EdgeCut(g, a), EdgeCut(g, ha))
	}
}

// TestEdgeCutBounds: edge cut is 0 for k=1 and never exceeds the edge
// count (property-based over random assignments).
func TestEdgeCutBounds(t *testing.T) {
	g := gridGraph(15, 15)
	one, _ := Hash{}.Partition(g, 1)
	if EdgeCut(g, one) != 0 {
		t.Fatal("k=1 cut nonzero")
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		k := 2 + rng.IntN(6)
		a := make(Assignment, g.NumVertices())
		for v := range a {
			a[v] = WorkerID(rng.IntN(k))
		}
		cut := EdgeCut(g, a)
		return cut >= 0 && cut <= g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceMetric(t *testing.T) {
	a := Assignment{0, 0, 0, 1} // 3 vs 1, avg 2 → max/avg - 1 = 0.5
	if imb := Imbalance(a, 2); imb != 0.5 {
		t.Fatalf("imbalance = %v, want 0.5", imb)
	}
	b := Assignment{0, 1, 0, 1}
	if imb := Imbalance(b, 2); imb != 0 {
		t.Fatalf("balanced imbalance = %v", imb)
	}
}

func TestValidateRejects(t *testing.T) {
	a := Assignment{0, 3}
	if err := a.Validate(2); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
	if err := a.Validate(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestWorkerCountOutOfRange: every partitioner rejects a worker count
// outside [1, MaxWorkers] with an error, before any work and without
// panicking.
func TestWorkerCountOutOfRange(t *testing.T) {
	g := gridGraph(5, 5)
	dom := NewDomain([]graph.Coord{{X: 1, Y: 1}, {X: 3, Y: 3}}, nil)
	for _, p := range []Partitioner{Hash{}, LDG{}, dom} {
		for _, k := range []int{-1, 0, MaxWorkers + 1} {
			a, err := p.Partition(g, k)
			if err == nil || a != nil {
				t.Errorf("%s k=%d: got %d owners, error %v", p.Name(), k, len(a), err)
			} else if want := fmt.Sprintf("partition: worker count %d out of range", k); err.Error() != want {
				t.Errorf("%s k=%d: error %q, want %q", p.Name(), k, err, want)
			}
		}
	}
}
