// Package gen produces the synthetic datasets the reproduction runs on.
//
// The paper evaluates on OpenStreetMap exports of Germany (GY, 11.8M
// vertices) and Baden-Württemberg (BW, 1.8M vertices) plus real city
// populations. Those inputs are not available offline, so this package
// builds the closest synthetic equivalents of Sec. 4.1's inputs: planar
// road networks with travel-time weights and population-weighted city
// hotspots, small-world social graphs with planted communities, and
// preferential-attachment knowledge graphs. Everything is deterministic
// given the config seed.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"qgraph/internal/graph"
)

// City is a query hotspot on a road network: a populated place whose
// population determines how many queries the workload generator aims at it.
type City struct {
	Name   string
	Center graph.Coord
	Vertex graph.VertexID // junction closest to the center
	Pop    float64        // synthetic population (Zipf across cities)
	Radius float64        // hotspot radius in km (grows with population)
}

// RoadConfig parameterises the synthetic road network.
type RoadConfig struct {
	CellsX, CellsY int     // junction grid dimensions
	CellKM         float64 // spacing between adjacent junctions in km
	Jitter         float64 // junction position jitter as a fraction of CellKM
	RemoveProb     float64 // probability of dropping a local road
	DiagProb       float64 // probability of an extra diagonal road
	HighwayEvery   int     // every n-th row/column is a fast highway (0 = none)
	LocalSpeed     float64 // km/h on local roads
	HighwaySpeed   float64 // km/h on highways
	NumCities      int     // number of query hotspots
	ZipfS          float64 // skew of the city population distribution
	TagProb        float64 // POI tag probability per vertex (paper: 1/12500)
	Seed           uint64
}

// BWConfig resembles the Baden-Württemberg road network of the paper at
// 1/scale of the vertex count (scale=1 ≈ 1.8M vertices, the paper size).
// The paper uses the 16 biggest BW cities as hotspots.
//
// The POI tag probability is the paper's 1/12500 at scale 1 and grows
// proportionally on scaled-down maps so that the number of tagged vertices
// per map — and with it the radius a POI query explores relative to the
// hotspot layout — stays comparable (capped at 1%).
func BWConfig(scale int) RoadConfig {
	cells := int(math.Sqrt(1802728 / float64(max(scale, 1))))
	return RoadConfig{
		CellsX: cells, CellsY: cells,
		CellKM: 0.5, Jitter: 0.3,
		RemoveProb: 0.08, DiagProb: 0.05,
		HighwayEvery: 16, LocalSpeed: 50, HighwaySpeed: 110,
		NumCities: 16, ZipfS: 1.0,
		TagProb: math.Min(0.01, float64(max(scale, 1))/12500),
		Seed:    0xB2,
	}
}

// GYConfig resembles the Germany road network at 1/scale of the vertex
// count (scale=1 ≈ 11.8M vertices) with the paper's 64 city hotspots.
// See BWConfig for the tag-probability scaling.
func GYConfig(scale int) RoadConfig {
	cells := int(math.Sqrt(11805883 / float64(max(scale, 1))))
	return RoadConfig{
		CellsX: cells, CellsY: cells,
		CellKM: 0.8, Jitter: 0.3,
		RemoveProb: 0.08, DiagProb: 0.05,
		HighwayEvery: 20, LocalSpeed: 50, HighwaySpeed: 120,
		NumCities: 64, ZipfS: 1.0,
		TagProb: math.Min(0.01, float64(max(scale, 1))/12500),
		Seed:    0x67,
	}
}

// RoadNet is a generated road network with its hotspot cities and a spatial
// index for coordinate lookups.
type RoadNet struct {
	G      *graph.Graph
	Cities []City
	Index  *SpatialIndex
	Config RoadConfig
}

// Road generates a synthetic road network: a jittered junction grid with
// bidirectional travel-time-weighted segments, random removals (dead ends,
// rivers), occasional diagonals, fast highway rows/columns, and Zipf-
// populated cities. The result is always strongly connected (a repair pass
// reconnects pockets isolated by removals).
func Road(cfg RoadConfig) (*RoadNet, error) {
	if cfg.CellsX < 2 || cfg.CellsY < 2 {
		return nil, fmt.Errorf("gen: grid %dx%d too small", cfg.CellsX, cfg.CellsY)
	}
	if cfg.NumCities < 1 {
		return nil, fmt.Errorf("gen: need at least one city")
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
	nx, ny := cfg.CellsX, cfg.CellsY
	n := nx * ny
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*nx + x) }

	coords := make([]graph.Coord, n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			jx := (rng.Float64()*2 - 1) * cfg.Jitter * cfg.CellKM
			jy := (rng.Float64()*2 - 1) * cfg.Jitter * cfg.CellKM
			coords[id(x, y)] = graph.Coord{
				X: float32(float64(x)*cfg.CellKM + jx),
				Y: float32(float64(y)*cfg.CellKM + jy),
			}
		}
	}

	isHighway := func(x, y, x2, y2 int) bool {
		if cfg.HighwayEvery <= 0 {
			return false
		}
		if y == y2 && y%cfg.HighwayEvery == 0 {
			return true
		}
		if x == x2 && x%cfg.HighwayEvery == 0 {
			return true
		}
		return false
	}

	uf := newUnionFind(n)
	b := graph.NewBuilder(n)
	addRoad := func(a, c graph.VertexID, highway bool) {
		speed := cfg.LocalSpeed
		if highway {
			speed = cfg.HighwaySpeed
		}
		length := coords[a].Dist(coords[c])
		// Weight is travel time in seconds, as in the paper (length of the
		// segment divided by the speed limit).
		w := float32(length / speed * 3600)
		b.AddBiEdge(a, c, w)
		uf.union(int(a), int(c))
	}

	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := id(x, y)
			if x+1 < nx {
				hw := isHighway(x, y, x+1, y)
				if hw || rng.Float64() >= cfg.RemoveProb {
					addRoad(v, id(x+1, y), hw)
				}
			}
			if y+1 < ny {
				hw := isHighway(x, y, x, y+1)
				if hw || rng.Float64() >= cfg.RemoveProb {
					addRoad(v, id(x, y+1), hw)
				}
			}
			if x+1 < nx && y+1 < ny && rng.Float64() < cfg.DiagProb {
				addRoad(v, id(x+1, y+1), false)
			}
		}
	}

	// Repair pass: reconnect any pocket that removals isolated by restoring
	// a grid edge that crosses the component boundary.
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := id(x, y)
			if x+1 < nx && uf.find(int(v)) != uf.find(int(id(x+1, y))) {
				addRoad(v, id(x+1, y), false)
			}
			if y+1 < ny && uf.find(int(v)) != uf.find(int(id(x, y+1))) {
				addRoad(v, id(x, y+1), false)
			}
		}
	}

	tags := make([]bool, n)
	for i := range tags {
		if rng.Float64() < cfg.TagProb {
			tags[i] = true
		}
	}
	b.SetCoords(coords)
	b.SetTags(tags)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}

	idx := NewSpatialIndex(g, cfg.CellKM*4)
	cities := placeCities(cfg, coords, idx, rng)
	return &RoadNet{G: g, Cities: cities, Index: idx, Config: cfg}, nil
}

// placeCities scatters NumCities hotspots with minimum separation and Zipf
// populations (population of the i-th largest city ∝ 1/(i+1)^s, matching
// the skew of real city-size distributions the paper piggybacks on).
func placeCities(cfg RoadConfig, coords []graph.Coord, idx *SpatialIndex, rng *rand.Rand) []City {
	w := float64(cfg.CellsX) * cfg.CellKM
	h := float64(cfg.CellsY) * cfg.CellKM
	minSep := math.Sqrt(w*h/float64(cfg.NumCities)) * 0.5
	var centers []graph.Coord
	for attempts := 0; len(centers) < cfg.NumCities && attempts < cfg.NumCities*200; attempts++ {
		c := graph.Coord{
			X: float32(rng.Float64()*w*0.9 + w*0.05),
			Y: float32(rng.Float64()*h*0.9 + h*0.05),
		}
		ok := true
		for _, o := range centers {
			if c.Dist(o) < minSep {
				ok = false
				break
			}
		}
		if ok {
			centers = append(centers, c)
		}
	}
	// If rejection sampling could not reach the target count (tiny maps),
	// fill the remainder without the separation constraint.
	for len(centers) < cfg.NumCities {
		centers = append(centers, graph.Coord{
			X: float32(rng.Float64() * w), Y: float32(rng.Float64() * h),
		})
	}

	cities := make([]City, cfg.NumCities)
	for i := range cities {
		pop := 1e6 / math.Pow(float64(i+1), cfg.ZipfS)
		// Hotspot radius grows with the square root of population, spans
		// at least a few junctions, and stays well inside the city's own
		// neighborhood so hotspots do not bleed into each other on small
		// maps.
		radius := math.Sqrt(pop) / 500 * cfg.CellKM * 8
		radius = math.Max(2*cfg.CellKM, math.Min(radius, minSep/3))
		cities[i] = City{
			Name:   fmt.Sprintf("city-%02d", i),
			Center: centers[i],
			Vertex: idx.Nearest(centers[i]),
			Pop:    pop,
			Radius: radius,
		}
	}
	_ = coords
	return cities
}

type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &unionFind{parent: p, rank: make([]int8, n)}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != int32(x) {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = int(u.parent[x])
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
