package graph

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

// lineGraph builds 0 → 1 → ... → n-1 with unit weights.
func lineGraph(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(VertexID(v), VertexID(v+1), 1)
	}
	return b.MustBuild()
}

// randomGraph builds a random connected graph for property tests.
func randomGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		// Tree backbone keeps it connected from 0.
		b.AddBiEdge(VertexID(rng.IntN(v)), VertexID(v), float32(rng.Float64()*10+0.1))
	}
	extra := rng.IntN(2 * n)
	for i := 0; i < extra; i++ {
		b.AddBiEdge(VertexID(rng.IntN(n)), VertexID(rng.IntN(n)), float32(rng.Float64()*10+0.1))
	}
	return b.MustBuild()
}

func TestBuilderCSRLayout(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(0, 2, 2.5)
	b.AddEdge(2, 0, 3.5)
	g := b.MustBuild()
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if got := g.Out(0); len(got) != 2 || got[0].To != 1 || got[1].To != 2 {
		t.Fatalf("Out(0) = %v", got)
	}
	if g.OutDegree(1) != 0 {
		t.Fatalf("OutDegree(1) = %d", g.OutDegree(1))
	}
	if got := g.Out(2); len(got) != 1 || got[0].Weight != 3.5 {
		t.Fatalf("Out(2) = %v", got)
	}
}

func TestValidateRejectsBadEdges(t *testing.T) {
	if _, err := FromCSR([]int32{0, 1}, []Edge{{To: 5, Weight: 1}}, nil, nil); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := FromCSR([]int32{0, 1}, []Edge{{To: 0, Weight: -1}}, nil, nil); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := FromCSR([]int32{0, 2}, []Edge{{To: 0, Weight: 1}}, nil, nil); err == nil {
		t.Fatal("offset/edge mismatch accepted")
	}
	if _, err := FromCSR([]int32{0, 1}, []Edge{{To: 0, Weight: 1}}, make([]Coord, 5), nil); err == nil {
		t.Fatal("coord length mismatch accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := randomGraph(rng, 200)
	// Attach coords and tags to exercise both flags.
	coords := make([]Coord, 200)
	tags := make([]bool, 200)
	for i := range coords {
		coords[i] = Coord{X: float32(i), Y: float32(-i)}
		tags[i] = i%7 == 0
	}
	g2, err := FromCSR(g.offsets, g.edges, coords, tags)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != g2.NumVertices() || loaded.NumEdges() != g2.NumEdges() {
		t.Fatalf("size mismatch after round trip")
	}
	for v := 0; v < loaded.NumVertices(); v++ {
		a, b := g2.Out(VertexID(v)), loaded.Out(VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d edge %d: %v vs %v", v, i, a[i], b[i])
			}
		}
		if loaded.Coord(VertexID(v)) != g2.Coord(VertexID(v)) {
			t.Fatalf("vertex %d coord mismatch", v)
		}
		if loaded.Tagged(VertexID(v)) != g2.Tagged(VertexID(v)) {
			t.Fatalf("vertex %d tag mismatch", v)
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	g := lineGraph(10)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)-3]), int64(len(data)-3)); err == nil {
		t.Fatal("truncated file accepted")
	}
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := Load(bytes.NewReader(bad), int64(len(bad))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestParseEdgeList(t *testing.T) {
	in := `# comment
0 1 2.5
1 2
% another comment
2 0 0.5`
	g, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g.Out(1)[0].Weight != 1 {
		t.Fatalf("default weight = %v", g.Out(1)[0].Weight)
	}
	if _, err := ParseEdgeList(strings.NewReader("0 x")); err == nil {
		t.Fatal("bad vertex accepted")
	}
	if _, err := ParseEdgeList(strings.NewReader("0 1 -3")); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := randomGraph(rng, 50)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d vs %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	dist := Dijkstra(g, 0)
	for v, want := range []float64{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want)
		}
	}
	// Line is directed: nothing reaches 0.
	if d := Dijkstra(g, 4); d[0] != Inf {
		t.Fatalf("dist 4→0 = %v, want Inf", d[0])
	}
}

// TestDijkstraToAgreesWithFull is a property test: early-exit point-to-point
// distances match the full run.
func TestDijkstraToAgreesWithFull(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		g := randomGraph(rng, 60)
		src := VertexID(rng.IntN(60))
		full := Dijkstra(g, src)
		for trial := 0; trial < 10; trial++ {
			dst := VertexID(rng.IntN(60))
			if got := DijkstraTo(g, src, dst); got != full[dst] {
				t.Logf("src %d dst %d: %v vs %v", src, dst, got, full[dst])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTriangleInequality: Dijkstra distances satisfy d(u) + w(u,v) >= d(v).
func TestTriangleInequality(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		g := randomGraph(rng, 80)
		dist := Dijkstra(g, 0)
		for v := 0; v < g.NumVertices(); v++ {
			if dist[v] == Inf {
				continue
			}
			for _, e := range g.Out(VertexID(v)) {
				if dist[v]+float64(e.Weight) < dist[e.To]-1e-9 {
					t.Logf("relaxable edge %d→%d", v, e.To)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestTagged(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 3, 5)
	b.SetTags([]bool{false, false, true, true})
	g := b.MustBuild()
	v, d := NearestTagged(g, 0)
	if v != 2 || d != 2 {
		t.Fatalf("got vertex %d dist %v, want 2/2", v, d)
	}
	// Source tagged: distance zero.
	v, d = NearestTagged(g, 2)
	if v != 2 || d != 0 {
		t.Fatalf("tagged source: got %d/%v", v, d)
	}
}

func TestBFSHopsAndConnectivity(t *testing.T) {
	g := lineGraph(6)
	hops := BFSHops(g, 2)
	want := []int{-1, -1, 0, 1, 2, 3}
	for v := range want {
		if hops[v] != want[v] {
			t.Fatalf("hops[%d] = %d, want %d", v, hops[v], want[v])
		}
	}
	if got := ConnectedFrom(g, 2); got != 4 {
		t.Fatalf("ConnectedFrom = %d, want 4", got)
	}
}

func TestCoordDist(t *testing.T) {
	a, b := Coord{0, 0}, Coord{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
}

// TestDijkstraAllocations: the reference search allocates its distance slice
// and its heap's growth, not one box per push — it is the oracle every
// sampled benchmark answer is checked against.
func TestDijkstraAllocations(t *testing.T) {
	const side = 100
	rng := rand.New(rand.NewPCG(4, 4))
	b := NewBuilder(side * side)
	for v := VertexID(0); v < side*side; v++ {
		if v%side+1 < side {
			b.AddBiEdge(v, v+1, float32(1+rng.IntN(9)))
		}
		if v+side < side*side {
			b.AddBiEdge(v, v+side, float32(1+rng.IntN(9)))
		}
	}
	g := b.MustBuild()
	if n := testing.AllocsPerRun(5, func() { Dijkstra(g, 0) }); n > 32 {
		t.Fatalf("Dijkstra on a %d×%d grid allocates %v times, want at most 32", side, side, n)
	}
}
