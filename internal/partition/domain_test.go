package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"qgraph/internal/gen"
	"qgraph/internal/graph"
)

// scanNearest is Domain.Partition's vertex loop before the grid: every
// center measured for every vertex, ties to the lowest index. It is the
// reference the grid must equal.
func scanNearest(g *graph.Graph, centers []graph.Coord, cellWorker []WorkerID) Assignment {
	d := &Domain{Centers: centers}
	nc := len(centers)
	a := make(Assignment, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		c := g.Coord(graph.VertexID(v))
		bestCell, bestD := 0, c.Dist(d.Centers[0])
		for ci := 1; ci < nc; ci++ {
			if dd := c.Dist(d.Centers[ci]); dd < bestD {
				bestD = dd
				bestCell = ci
			}
		}
		a[v] = cellWorker[bestCell]
	}
	return a
}

// coordGraph is an edgeless graph on the given coordinates.
func coordGraph(coords []graph.Coord) *graph.Graph {
	b := graph.NewBuilder(len(coords))
	b.SetCoords(coords)
	return b.MustBuild()
}

// matchesScan checks that assignNearest puts every vertex in scanNearest's
// cell, and that Domain.Partition equals scanNearest's assignment at every
// k in ks.
func matchesScan(g *graph.Graph, centers []graph.Coord, weights []float64, ks []int) error {
	identity := make([]WorkerID, len(centers))
	for i := range identity {
		identity[i] = WorkerID(i)
	}
	want := scanNearest(g, centers, identity)
	got := assignNearest(g.Coords(), centers, identity)
	for v, c := range g.Coords() {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d at %v: cell %d, scan says %d", v, c, got[v], want[v])
		}
	}
	d := NewDomain(centers, weights)
	for _, k := range ks {
		got, err := d.Partition(g, k)
		if err != nil {
			return fmt.Errorf("k=%d: %v", k, err)
		}
		w := weights
		if w == nil {
			w = slices.Repeat([]float64{1}, len(centers))
		}
		if want := scanNearest(g, centers, packCells(w, k)); !slices.Equal(got, want) {
			return fmt.Errorf("k=%d: assignment differs from the scan's", k)
		}
	}
	return nil
}

// roadNet generates a road network with its city centers and populations.
func roadNet(t testing.TB, cfg gen.RoadConfig) (*graph.Graph, []graph.Coord, []float64) {
	net, err := gen.Road(cfg)
	if err != nil {
		t.Fatal(err)
	}
	centers := make([]graph.Coord, len(net.Cities))
	pops := make([]float64, len(net.Cities))
	for i, c := range net.Cities {
		centers[i], pops[i] = c.Center, c.Pop
	}
	return net.G, centers, pops
}

type domainCase struct {
	name    string
	g       *graph.Graph
	centers []graph.Coord
	weights []float64
}

// domainCases are the inputs the grid must agree with the scan on.
func domainCases(t testing.TB) []domainCase {
	var cases []domainCase
	roads := []struct {
		name string
		cfg  gen.RoadConfig
	}{
		{"BW(64)", gen.BWConfig(64)}, {"BW(512)", gen.BWConfig(512)}, {"GY(3200)", gen.GYConfig(3200)},
	}
	for _, r := range roads {
		g, centers, pops := roadNet(t, r.cfg)
		cases = append(cases, domainCase{r.name, g, centers, pops})
	}

	// Integer centers on an integer grid: exact ties everywhere.
	grid := gridGraph(40, 40)
	cases = append(cases, domainCase{"grid, symmetric centers", grid,
		[]graph.Coord{{X: 10, Y: 10}, {X: 30, Y: 10}, {X: 10, Y: 30}, {X: 30, Y: 30}, {X: 20, Y: 20}}, nil})
	rng := rand.New(rand.NewPCG(7, 82))
	for i := range 8 {
		centers := make([]graph.Coord, 2+rng.IntN(11))
		for j := range centers {
			centers[j] = graph.Coord{X: float32(rng.IntN(40)), Y: float32(rng.IntN(40))}
		}
		cases = append(cases, domainCase{fmt.Sprintf("grid, random integer centers %d", i), grid, centers, nil})
	}

	// Vertices on the bisectors of pairs of centers, and 1–3 float32 ulps
	// off them, where only the margin keeps the nearer center a candidate.
	for i := range 4 {
		centers := make([]graph.Coord, 3+rng.IntN(10))
		for j := range centers {
			centers[j] = graph.Coord{X: float32(rng.Float64() * 100), Y: float32(rng.Float64() * 100)}
		}
		var coords []graph.Coord
		for len(coords) < 4000 {
			p, q := centers[rng.IntN(len(centers))], centers[rng.IntN(len(centers))]
			t := float32(rng.Float64()*2 - 1)
			c := graph.Coord{X: (p.X+q.X)/2 - t*(q.Y-p.Y), Y: (p.Y+q.Y)/2 + t*(q.X-p.X)}
			coords = append(coords, c)
			for ulps := 1; ulps <= 3; ulps++ {
				coords = append(coords, graph.Coord{X: nudge(c.X, ulps), Y: nudge(c.Y, -ulps)},
					graph.Coord{X: nudge(c.X, -ulps), Y: nudge(c.Y, ulps)})
			}
		}
		cases = append(cases, domainCase{fmt.Sprintf("on and beside bisectors %d", i), coordGraph(coords), centers, nil})
	}

	// Two centers 0.014 apart and vertices a million units away, around
	// their bisector. Coord.Dist's float32 differences round both centers
	// onto the same point there, so the scan ties every vertex and gives
	// it to center 0, also in buckets wholly on center 1's side.
	var band []graph.Coord
	for range 4000 {
		x := 5.5e5 + rng.Float64()*4e5
		band = append(band, graph.Coord{X: float32(x), Y: float32(-x + (rng.Float64()-0.5)*4e5)})
	}
	cases = append(cases, domainCase{"far from two close centers", coordGraph(band),
		[]graph.Coord{{X: 0.01, Y: 0.01}, {X: 0, Y: 0}}, nil})

	cases = append(cases,
		domainCase{"duplicated center", grid,
			[]graph.Coord{{X: 5, Y: 5}, {X: 25, Y: 25}, {X: 5, Y: 5}}, []float64{1, 2, 3}},
		domainCase{"single center", grid, []graph.Coord{{X: 3, Y: 7}}, nil},
		domainCase{"one vertex", coordGraph([]graph.Coord{{X: 1, Y: 2}}),
			[]graph.Coord{{X: 0, Y: 0}, {X: 2, Y: 4}}, nil},
	)

	// Every vertex on one point, equidistant from the first two centers.
	point := make([]graph.Coord, 200)
	for i := range point {
		point[i] = graph.Coord{X: 3, Y: 4}
	}
	cases = append(cases, domainCase{"all vertices on one point", coordGraph(point),
		[]graph.Coord{{X: 6, Y: 8}, {X: 0, Y: 0}, {X: 3, Y: 9}}, nil})

	// The grid moved far from a tight cluster of centers.
	far := slices.Clone(grid.Coords())
	for i := range far {
		far[i] = graph.Coord{X: far[i].X*1000 + 1e5, Y: far[i].Y*1000 - 3e4}
	}
	cases = append(cases, domainCase{"vertices far outside the centers' hull", coordGraph(far),
		[]graph.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}, nil})

	// A non-finite vertex measures every center; a non-finite center makes
	// every vertex measure every center.
	ok := []graph.Coord{{X: 10, Y: 10}, {X: 30, Y: 30}}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, bad := range []graph.Coord{{X: nan, Y: 3}, {X: 3, Y: inf}, {X: -inf, Y: 3}} {
		coords := slices.Clone(grid.Coords())
		coords[41] = bad
		cases = append(cases,
			domainCase{fmt.Sprintf("vertex at %v", bad), coordGraph(coords), ok, nil},
			domainCase{fmt.Sprintf("center at %v", bad), grid, append(slices.Clone(ok), bad), nil},
			domainCase{fmt.Sprintf("first center at %v", bad), grid, append([]graph.Coord{bad}, ok...), nil},
		)
	}
	return cases
}

// nudge moves x by ulps float32 ulps.
func nudge(x float32, ulps int) float32 {
	for ; ulps > 0; ulps-- {
		x = math.Nextafter32(x, float32(math.Inf(1)))
	}
	for ; ulps < 0; ulps++ {
		x = math.Nextafter32(x, float32(math.Inf(-1)))
	}
	return x
}

// TestDomainMatchesScan: assignNearest finds exactly the scan's cells, and
// Domain.Partition exactly its assignment.
func TestDomainMatchesScan(t *testing.T) {
	for _, c := range domainCases(t) {
		if err := matchesScan(c.g, c.centers, c.weights, []int{2, 4, 16}); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// The fuzz input is: a center count byte (1–20 centers), a mode byte, then
// the centers' and then up to 150 vertices' coordinates. Mode 0 reads each
// coordinate as float32 bits (NaN, ±Inf, subnormals and MaxFloat32
// included), mode 1 as a signed byte (exact ties), and mode 2 as a signed
// byte moved by −4…4 float32 ulps (points on and just off the bisectors).
const fuzzMaxVertices = 150

func decodeFuzzCase(data []byte) (centers, coords []graph.Coord) {
	if len(data) < 2 {
		return nil, nil
	}
	nc, mode := 1+int(data[0])%20, data[1]%3
	data = data[2:]
	next := func() (float32, bool) {
		switch mode {
		case 0:
			if len(data) < 4 {
				return 0, false
			}
			x := math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
			return x, true
		case 1:
			if len(data) < 1 {
				return 0, false
			}
			x := float32(int8(data[0]))
			data = data[1:]
			return x, true
		default:
			if len(data) < 2 {
				return 0, false
			}
			x := nudge(float32(int8(data[0])), int(data[1]%9)-4)
			data = data[2:]
			return x, true
		}
	}
	for len(centers)+len(coords) < nc+fuzzMaxVertices {
		x, ok := next()
		y, ok2 := next()
		if !ok || !ok2 {
			break
		}
		if len(centers) < nc {
			centers = append(centers, graph.Coord{X: x, Y: y})
		} else {
			coords = append(coords, graph.Coord{X: x, Y: y})
		}
	}
	return centers, coords
}

// encodeFuzzCase is decodeFuzzCase's inverse in mode 0, for at most 20
// centers and 32 vertices spread evenly over coords: small seeds keep the
// fuzzer's minimization of what it finds quick.
func encodeFuzzCase(centers, coords []graph.Coord) []byte {
	centers = centers[:min(len(centers), 20)]
	data := []byte{byte(len(centers) - 1), 0}
	put := func(c graph.Coord) {
		data = binary.LittleEndian.AppendUint32(data, math.Float32bits(c.X))
		data = binary.LittleEndian.AppendUint32(data, math.Float32bits(c.Y))
	}
	for _, c := range centers {
		put(c)
	}
	for i := range min(len(coords), 32) {
		put(coords[i*len(coords)/min(len(coords), 32)])
	}
	return data
}

// FuzzDomainMatchesScan: on any coordinates, assignNearest's cells and
// Domain.Partition's assignment equal the scan's.
func FuzzDomainMatchesScan(f *testing.F) {
	for _, c := range domainCases(f) {
		f.Add(encodeFuzzCase(c.centers, c.g.Coords()))
	}
	f.Add([]byte{3, 1, 0, 0, 6, 8, 3, 9, 3, 4, 3, 4, 0, 0, 6, 8})
	f.Add([]byte{1, 2, 0, 0, 2, 0, 4, 0, 1, 1, 1, 7, 1, 8, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		centers, coords := decodeFuzzCase(data)
		if len(centers) == 0 || len(coords) == 0 {
			return
		}
		if err := matchesScan(coordGraph(coords), centers, nil, []int{2}); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDomainPartition is road_local's partition step: Domain over the
// 16 cities of gen.BWConfig(64) (27 889 vertices) onto k = 2 workers.
func BenchmarkDomainPartition(b *testing.B) {
	g, centers, pops := roadNet(b, gen.BWConfig(64))
	d := NewDomain(centers, pops)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := d.Partition(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}
