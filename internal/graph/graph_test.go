package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
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
	// benchGraph's file is twice the codec's buffer, so each of its
	// sections is read and written across buffer refills.
	for _, g := range []*Graph{g, g2, benchGraph()} {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(loaded.offsets, g.offsets) || !slices.Equal(loaded.edges, g.edges) ||
			!slices.Equal(loaded.coords, g.coords) || !slices.Equal(loaded.tags, g.tags) {
			t.Fatalf("a graph of %d vertices and %d edges changed in a round trip", g.NumVertices(), g.NumEdges())
		}
	}
}

// goldenGraph is the graph testdata/golden.qgr holds: coords, tags, a
// zero-weight edge (1 → 2) and a vertex with no out-edges (3).
func goldenGraph() *Graph {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(0, 3, 2.75)
	b.AddEdge(1, 2, 0)
	b.AddEdge(2, 0, 3.25)
	b.AddEdge(4, 0, 0.5)
	b.SetCoords([]Coord{{X: 0, Y: 0}, {X: 1.5, Y: -2}, {X: 3, Y: 4.25}, {X: -1, Y: 0.5}, {X: 1000, Y: -0.001}})
	b.SetTags([]bool{false, true, false, true, false})
	return b.MustBuild()
}

// TestGoldenFile pins the QGR1 format: a file written by an earlier codec
// loads into the graph it was written from, and saving that graph gives
// back the file byte for byte.
func TestGoldenFile(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.qgr")
	if err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile("testdata/golden.qgr")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenGraph()
	if !slices.Equal(g.offsets, want.offsets) || !slices.Equal(g.edges, want.edges) ||
		!slices.Equal(g.coords, want.coords) || !slices.Equal(g.tags, want.tags) {
		t.Fatalf("golden.qgr loads as %+v, want %+v", g, want)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("golden.qgr re-saves as\n%x\nwant\n%x", buf.Bytes(), golden)
	}
}

// TestLoadRejectsCorrupt pins every check Load makes, each by the error it
// gives for one edit of the golden file. No rejection allocates as much as
// 1 MiB, so a header whose counts the input cannot back is refused before
// its arrays exist.
func TestLoadRejectsCorrupt(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.qgr")
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	// Where the golden file's sections start: 5 vertices, 5 edges.
	const offsets, edges, tags = 24, 24 + 4*6, 24 + 4*6 + 8*5 + 8*5
	cases := []struct {
		name  string
		edit  func(f []byte) []byte
		claim int64 // the size Load is told, if not the edited length
		want  string
	}{
		{"truncated", func(f []byte) []byte { return f[:len(f)-3] }, 0, "take 133 bytes, input has 130"},
		{"shorter than its size", func(f []byte) []byte { return f[:len(f)-3] }, 133, "reading tags: unexpected EOF"},
		{"bad magic", func(f []byte) []byte { f[0] = 'X'; return f }, 0, "bad magic"},
		{"trailing bytes", func(f []byte) []byte { return append(f, 0, 0) }, 0, "take 133 bytes, input has 135"},
		{"unknown flag bit", func(f []byte) []byte { le.PutUint32(f[4:], flagCoords|flagTags|1<<2); return f }, 0, "unknown flags 0x7"},
		{"tag byte 2", func(f []byte) []byte { f[tags+3] = 2; return f }, 0, "tag byte 2 of vertex 3"},
		{"offsets not monotone", func(f []byte) []byte { le.PutUint32(f[offsets+4*2:], 1); return f }, 0, "offsets not monotone at vertex 1"},
		{"edge target out of range", func(f []byte) []byte { le.PutUint32(f[edges+8:], 5); return f }, 0, "edge 1 targets out-of-range vertex 5"},
		{"NaN weight", func(f []byte) []byte { le.PutUint32(f[edges+4:], 0x7fc00000); return f }, 0, "edge 0 has invalid weight NaN"},
		{"negative weight", func(f []byte) []byte { le.PutUint32(f[edges+4:], math.Float32bits(-1)); return f }, 0, "edge 0 has invalid weight -1"},
		{"counts past size", func(f []byte) []byte { le.PutUint64(f[8:], 1<<24); return f }, 0, "input has 133"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			file := c.edit(bytes.Clone(golden))
			size := c.claim
			if size == 0 {
				size = int64(len(file))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := Load(bytes.NewReader(file), size)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted as %+v", g)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to say %q", err, c.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("rejecting it allocated %d bytes", got)
			}
		})
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
