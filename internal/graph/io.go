package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Binary graph file format ("QGR1"): little-endian.
//
//	magic   [4]byte  "QGR1"
//	flags   uint32   bit0 = has coords, bit1 = has tags
//	n       uint64   vertex count
//	m       uint64   edge count
//	offsets [n+1]int32
//	edges   [m]{to int32, weight float32}
//	coords  [n]{x float32, y float32}   (if bit0)
//	tags    [n]byte                     (if bit1)
const (
	magic        = "QGR1"
	flagCoords   = 1 << 0
	flagTags     = 1 << 1
	maxFileVerts = 1 << 31 // sanity bound when loading untrusted files
)

// Save writes the graph in the QGR1 binary format.
func (g *Graph) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint32
	if g.coords != nil {
		flags |= flagCoords
	}
	if g.tags != nil {
		flags |= flagTags
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumVertices())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumEdges())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.edges); err != nil {
		return err
	}
	if g.coords != nil {
		if err := binary.Write(bw, binary.LittleEndian, g.coords); err != nil {
			return err
		}
	}
	if g.tags != nil {
		buf := make([]byte, len(g.tags))
		for i, t := range g.tags {
			if t {
				buf[i] = 1
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a graph in the QGR1 binary format and validates it. size is
// the length of the input: the header must account for it to the byte, so
// a vertex or edge count the input cannot back is refused before anything
// is allocated for it, and bytes past the graph are refused too.
func Load(r io.Reader, size int64) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("graph: bad magic %q", head)
	}
	var flags uint32
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, err
	}
	var n, m uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, err
	}
	if n >= maxFileVerts || m >= maxFileVerts {
		return nil, fmt.Errorf("graph: unreasonable sizes n=%d m=%d", n, m)
	}
	if flags&^(flagCoords|flagTags) != 0 {
		return nil, fmt.Errorf("graph: unknown flags %#x", flags)
	}
	want := int64(4+4+8+8) + 4*int64(n+1) + 8*int64(m)
	if flags&flagCoords != 0 {
		want += 8 * int64(n)
	}
	if flags&flagTags != 0 {
		want += int64(n)
	}
	if want != size {
		return nil, fmt.Errorf("graph: n=%d m=%d flags=%#x take %d bytes, input has %d", n, m, flags, want, size)
	}
	offsets := make([]int32, n+1)
	if err := binary.Read(br, binary.LittleEndian, offsets); err != nil {
		return nil, err
	}
	edges := make([]Edge, m)
	if err := binary.Read(br, binary.LittleEndian, edges); err != nil {
		return nil, err
	}
	var coords []Coord
	if flags&flagCoords != 0 {
		coords = make([]Coord, n)
		if err := binary.Read(br, binary.LittleEndian, coords); err != nil {
			return nil, err
		}
	}
	var tags []bool
	if flags&flagTags != 0 {
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		tags = make([]bool, n)
		for i, b := range buf {
			if b > 1 {
				return nil, fmt.Errorf("graph: tag byte %d of vertex %d", b, i)
			}
			tags[i] = b != 0
		}
	}
	return FromCSR(offsets, edges, coords, tags)
}

// SaveFile writes the graph to path in QGR1 format.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a QGR1 graph from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Load(f, st.Size())
}

// ParseEdgeList reads a whitespace-separated edge list: one "from to weight"
// triple per line (weight optional, default 1). Lines starting with '#' or
// '%' are comments. The vertex count is one plus the largest ID seen.
func ParseEdgeList(r io.Reader) (*Graph, error) {
	type rawEdge struct {
		from, to VertexID
		w        float32
	}
	var raw []rawEdge
	maxID := VertexID(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'from to [weight]', got %q", lineNo, line)
		}
		from, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad from: %w", lineNo, err)
		}
		to, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad to: %w", lineNo, err)
		}
		w := float32(1)
		if len(fields) >= 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil || wf < 0 || math.IsNaN(wf) {
				return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
			w = float32(wf)
		}
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		raw = append(raw, rawEdge{VertexID(from), VertexID(to), w})
		if VertexID(from) > maxID {
			maxID = VertexID(from)
		}
		if VertexID(to) > maxID {
			maxID = VertexID(to)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	b := NewBuilder(int(maxID) + 1)
	for _, e := range raw {
		b.AddEdge(e.from, e.to, e.w)
	}
	return b.Build()
}

// WriteEdgeList writes the graph as a plain text edge list.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(VertexID(v)) {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", v, e.To, e.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
