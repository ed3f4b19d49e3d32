package partition

import (
	"fmt"
	"math"
	"sort"

	"qgraph/internal/graph"
)

// Domain is the paper's best-case static partitioner (Sec. 4.1): a domain
// expert who knows the query hotspots in advance assigns each hotspot to a
// single partition. Here: every vertex joins the Voronoi cell of its
// nearest hotspot center, and whole cells are packed onto workers by
// descending expected load. Locality is near-optimal (>95% in Fig. 6f) but
// workload balance is poor, because hotspot populations are skewed.
type Domain struct {
	// Centers are the hotspot centers (city centers for road networks).
	Centers []graph.Coord
	// Weights are the expected query loads per hotspot (city populations).
	// Nil means uniform.
	Weights []float64
}

// NewDomain builds the oracle partitioner from hotspot centers and
// expected per-hotspot load.
func NewDomain(centers []graph.Coord, weights []float64) *Domain {
	return &Domain{Centers: centers, Weights: weights}
}

// Name implements Partitioner.
func (*Domain) Name() string { return "domain" }

// Partition implements Partitioner. Every vertex joins the cell of the
// center nearest to it by Coord.Dist, ties to the lowest index: exactly the
// cells that measuring every center for every vertex finds, but a grid of
// candidate centers finds them in O(V + buckets·C) rather than O(V·C). A
// vertex the grid does not cover (NaN, ±Inf, beyond ±MaxFloat32/2 or far
// from the rest) measures every center, and so does every vertex when a
// center is NaN, ±Inf or beyond ±MaxFloat32/2.
func (d *Domain) Partition(g *graph.Graph, k int) (Assignment, error) {
	if err := checkWorkers(k); err != nil {
		return nil, err
	}
	if !g.HasCoords() {
		return nil, fmt.Errorf("partition: domain requires coordinates")
	}
	if len(d.Centers) == 0 {
		return nil, fmt.Errorf("partition: domain requires at least one hotspot center")
	}
	nc := len(d.Centers)
	weights := d.Weights
	if weights == nil {
		weights = make([]float64, nc)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != nc {
		return nil, fmt.Errorf("partition: %d weights for %d centers", len(weights), nc)
	}

	return assignNearest(g.Coords(), d.Centers, packCells(weights, k)), nil
}

// packCells packs hotspots onto workers: heaviest first onto the
// least-loaded worker (greedy LPT). This is what a sensible human expert
// does and still leaves the imbalance the paper observes, because the
// heaviest hotspot alone can exceed the average load.
func packCells(weights []float64, k int) []WorkerID {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	load := make([]float64, k)
	cellWorker := make([]WorkerID, len(weights))
	for _, ci := range order {
		best := 0
		for w := 1; w < k; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		cellWorker[ci] = WorkerID(best)
		load[best] += weights[ci]
	}
	return cellWorker
}

// bucketVertices is the mean number of vertices per grid bucket, and the
// stride of the vertices whose bounding box the grid covers.
const bucketVertices = 64

// coordLimit bounds the grid and the centers it prunes: the float32
// difference of two coordinates within it cannot overflow to ±Inf.
const coordLimit = math.MaxFloat32 / 2

// pruneMargin is the relative gap by which one center's squared distance
// must exceed another's at every corner of a bucket before the first is
// dropped from it. Coord.Dist subtracts in float32 (2⁻²⁴ relative error
// per difference, so 2⁻²³ on a square) before its float64 sum and sqrt
// round at 2⁻⁵³, and the corner test itself rounds at 2⁻⁵³ too: a margin
// of 2⁻¹⁸ outweighs them all, so the dropped center's Dist is strictly
// greater than the other's at every vertex of the bucket.
const pruneMargin = 0x1p-18

// assignNearest gives every vertex the worker of the center nearest to it
// by Coord.Dist, ties to the lowest index: the same cells as measuring
// every center for every vertex. A vertex inside the grid whose bucket
// keeps one center takes that cell with no distance measured; any other
// measures its bucket's centers in ascending index order, and a vertex
// outside the grid (NaN and ±Inf included) measures every center.
func assignNearest(coords, centers []graph.Coord, cellWorker []WorkerID) Assignment {
	a := make(Assignment, len(coords))
	g := newGrid(coords, centers)
	for v, c := range coords {
		cs := g.all
		if x, y := float64(c.X), float64(c.Y); x >= g.minX && x <= g.maxX && y >= g.minY && y <= g.maxY {
			b := g.bucket(x, y)
			cs = g.cand[g.first[b]:g.first[b+1]]
		}
		if len(cs) == 1 {
			a[v] = cellWorker[cs[0]]
			continue
		}
		best, bestD := cs[0], c.Dist(centers[cs[0]])
		for _, ci := range cs[1:] {
			if dd := c.Dist(centers[ci]); dd < bestD {
				best, bestD = ci, dd
			}
		}
		a[v] = cellWorker[best]
	}
	return a
}

// grid is a uniform grid of about n/64 buckets, each with the centers that
// can be nearest somewhere in it. It covers the bounding box of every 64th
// vertex, grown by a sixteenth on each side and clipped to ±coordLimit.
// Center q is dropped from a bucket when the center p nearest the bucket's
// middle is nearer by pruneMargin at all four corners of the bucket:
// (1−m)·|x−q|² − (1+m)·|x−p|² is concave in x, so positive at the corners
// means positive over the whole bucket. Building it costs O(V/64 +
// buckets·C).
type grid struct {
	minX, minY, maxX, maxY float64 // covers nothing when minX > maxX
	sx, sy                 float64 // buckets per coordinate unit
	cols, rows             int
	first                  []int32 // bucket b keeps cand[first[b]:first[b+1]]
	cand                   []int32 // ascending within each bucket
	all                    []int32 // every center, for vertices outside
}

// newGrid builds the grid. It covers nothing when a center lies outside
// ±coordLimit (NaN and ±Inf included), or when no sampled vertex lies
// inside.
func newGrid(coords, centers []graph.Coord) *grid {
	inf := math.Inf(1)
	g := &grid{minX: inf, minY: inf, maxX: -inf, maxY: -inf, all: make([]int32, len(centers))}
	for i := range g.all {
		g.all[i] = int32(i)
	}
	for _, c := range centers {
		if !(math.Abs(float64(c.X)) <= coordLimit && math.Abs(float64(c.Y)) <= coordLimit) {
			return g
		}
	}
	for v := 0; v < len(coords); v += bucketVertices {
		x, y := float64(coords[v].X), float64(coords[v].Y)
		if math.Abs(x) <= coordLimit && math.Abs(y) <= coordLimit {
			g.minX, g.maxX = min(g.minX, x), max(g.maxX, x)
			g.minY, g.maxY = min(g.minY, y), max(g.maxY, y)
		}
	}
	if g.minX > g.maxX {
		return g
	}
	growX, growY := (g.maxX-g.minX)/16, (g.maxY-g.minY)/16
	g.minX, g.maxX = max(g.minX-growX, -coordLimit), min(g.maxX+growX, coordLimit)
	g.minY, g.maxY = max(g.minY-growY, -coordLimit), min(g.maxY+growY, coordLimit)

	spanX, spanY := g.maxX-g.minX, g.maxY-g.minY
	nb := max(1, len(coords)/bucketVertices)
	g.cols, g.rows = 1, 1
	switch {
	case spanX > 0 && spanY > 0:
		g.cols = int(min(max(math.Sqrt(float64(nb)*spanX/spanY), 1), float64(nb)))
		g.rows = max(1, nb/g.cols)
	case spanX > 0:
		g.cols = nb
	case spanY > 0:
		g.rows = nb
	}
	if spanX > 0 {
		g.sx = float64(g.cols) / spanX
	}
	if spanY > 0 {
		g.sy = float64(g.rows) / spanY
	}

	// A bucket's box, clipped to the grid, is padded to hold every vertex
	// bucket() puts in it: the rounding of bucket()'s arithmetic and of the
	// box's corners stays below 2⁻⁴⁹ of the coordinates' magnitude.
	w, h := spanX/float64(g.cols), spanY/float64(g.rows)
	padX := 0x1p-40 * (math.Abs(g.minX) + math.Abs(g.maxX))
	padY := 0x1p-40 * (math.Abs(g.minY) + math.Abs(g.maxY))
	g.first = make([]int32, g.cols*g.rows+1)
	dm := make([]float64, len(centers)) // squared distances to the middle
	var pd [4]float64
	for row := range g.rows {
		y0 := max(g.minY, g.minY+float64(row)*h-padY)
		y1 := min(g.maxY, g.minY+float64(row+1)*h+padY)
		for col := range g.cols {
			x0 := max(g.minX, g.minX+float64(col)*w-padX)
			x1 := min(g.maxX, g.minX+float64(col+1)*w+padX)
			corners := [4][2]float64{{x0, y0}, {x1, y0}, {x0, y1}, {x1, y1}}
			mid := [2]float64{(x0 + x1) / 2, (y0 + y1) / 2}
			p := 0
			for q, c := range centers {
				if dm[q] = sqDist(mid, c); dm[q] < dm[p] {
					p = q
				}
			}
			// By the triangle inequality, a center farther from the middle
			// than p by more than the bucket's diagonal is farther than p
			// everywhere in it; 1+4m covers the margin and the rounding.
			diag := math.Hypot(x1-x0, y1-y0)
			far := (math.Sqrt(dm[p]) + diag) * (math.Sqrt(dm[p]) + diag) * (1 + 4*pruneMargin)
			for i, x := range corners {
				pd[i] = sqDist(x, centers[p]) * (1 + pruneMargin)
			}
			g.first[row*g.cols+col] = int32(len(g.cand))
			for q, c := range centers {
				if q == p || dm[q] <= far && !farther(&corners, c, &pd) {
					g.cand = append(g.cand, int32(q))
				}
			}
		}
	}
	g.first[len(g.first)-1] = int32(len(g.cand))
	return g
}

// farther reports whether q is farther by pruneMargin than the center whose
// squared corner distances, times 1+pruneMargin, are pd.
func farther(corners *[4][2]float64, q graph.Coord, pd *[4]float64) bool {
	for i, x := range corners {
		if sqDist(x, q)*(1-pruneMargin) <= pd[i] {
			return false
		}
	}
	return true
}

func sqDist(x [2]float64, c graph.Coord) float64 {
	dx, dy := x[0]-float64(c.X), x[1]-float64(c.Y)
	return dx*dx + dy*dy
}

// bucket returns the bucket of a point the grid covers.
func (g *grid) bucket(x, y float64) int {
	col := min(int((x-g.minX)*g.sx), g.cols-1)
	row := min(int((y-g.minY)*g.sy), g.rows-1)
	return row*g.cols + col
}

var _ Partitioner = (*Domain)(nil)
