package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
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
//
// Save and Load stream every section through one buffer of at most bufSize
// bytes, a whole number of records at a time, so neither holds a second
// copy of the file.
const (
	magic        = "QGR1"
	flagCoords   = 1 << 0
	flagTags     = 1 << 1
	maxFileVerts = 1 << 31 // sanity bound when loading untrusted files
	headerSize   = 4 + 4 + 8 + 8
	bufSize      = 1 << 20
)

// fileSize returns the length of a QGR1 file of n vertices and m edges with
// the given flags.
func fileSize(n, m uint64, flags uint32) int64 {
	size := int64(headerSize) + 4*int64(n+1) + 8*int64(m)
	if flags&flagCoords != 0 {
		size += 8 * int64(n)
	}
	if flags&flagTags != 0 {
		size += int64(n)
	}
	return size
}

// Save writes the graph in the QGR1 binary format.
func (g *Graph) Save(w io.Writer) error {
	le := binary.LittleEndian
	var flags uint32
	if g.coords != nil {
		flags |= flagCoords
	}
	if g.tags != nil {
		flags |= flagTags
	}
	n, m := uint64(g.NumVertices()), uint64(g.NumEdges())
	e := encoder{w: w, buf: make([]byte, min(bufSize, fileSize(n, m, flags)))}
	h := e.next(1, headerSize)
	copy(h, magic)
	le.PutUint32(h[4:], flags)
	le.PutUint64(h[8:], n)
	le.PutUint64(h[16:], m)
	for i := 0; i < len(g.offsets); {
		for p := e.next(len(g.offsets)-i, 4); len(p) > 0; p = p[4:] {
			le.PutUint32(p, uint32(g.offsets[i]))
			i++
		}
	}
	for i := 0; i < len(g.edges); {
		for p := e.next(len(g.edges)-i, 8); len(p) > 0; p = p[8:] {
			le.PutUint32(p, uint32(g.edges[i].To))
			le.PutUint32(p[4:], math.Float32bits(g.edges[i].Weight))
			i++
		}
	}
	for i := 0; i < len(g.coords); {
		for p := e.next(len(g.coords)-i, 8); len(p) > 0; p = p[8:] {
			le.PutUint32(p, math.Float32bits(g.coords[i].X))
			le.PutUint32(p[4:], math.Float32bits(g.coords[i].Y))
			i++
		}
	}
	for i := 0; i < len(g.tags); {
		for p := e.next(len(g.tags)-i, 1); len(p) > 0; p = p[1:] {
			p[0] = 0
			if g.tags[i] {
				p[0] = 1
			}
			i++
		}
	}
	return e.flush()
}

// encoder fills one fixed buffer with records and writes it out whenever
// the next record does not fit.
type encoder struct {
	w   io.Writer
	buf []byte
	n   int   // bytes of buf filled
	err error // the first write error; the bytes after it are dropped
}

// next reserves room in the buffer for up to left records of width bytes
// (at least one) and returns it to be filled.
func (e *encoder) next(left, width int) []byte {
	if e.n+width > len(e.buf) {
		e.flush()
	}
	k := min(left, (len(e.buf)-e.n)/width) * width
	p := e.buf[e.n : e.n+k]
	e.n += k
	return p
}

// flush writes the filled part of the buffer and empties it.
func (e *encoder) flush() error {
	if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
	return e.err
}

// decoder reads records through one fixed buffer.
type decoder struct {
	r   io.Reader
	buf []byte
}

// next reads up to left records of width bytes (at least one) and returns
// their bytes, which stay valid until the next call.
func (d *decoder) next(left, width int) ([]byte, error) {
	p := d.buf[:min(left, len(d.buf)/width)*width]
	_, err := io.ReadFull(d.r, p)
	return p, err
}

// Load reads a graph in the QGR1 binary format and validates it. size is
// the length of the input: the header must account for it to the byte, so
// a vertex or edge count the input cannot back is refused before anything
// is allocated for it, and bytes past the graph are refused too.
func Load(r io.Reader, size int64) (*Graph, error) {
	le := binary.LittleEndian
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if string(h[:4]) != magic {
		return nil, fmt.Errorf("graph: bad magic %q", h[:4])
	}
	flags, n, m := le.Uint32(h[4:]), le.Uint64(h[8:]), le.Uint64(h[16:])
	if n >= maxFileVerts || m >= maxFileVerts {
		return nil, fmt.Errorf("graph: unreasonable sizes n=%d m=%d", n, m)
	}
	if flags&^(flagCoords|flagTags) != 0 {
		return nil, fmt.Errorf("graph: unknown flags %#x", flags)
	}
	if want := fileSize(n, m, flags); want != size {
		return nil, fmt.Errorf("graph: n=%d m=%d flags=%#x take %d bytes, input has %d", n, m, flags, want, size)
	}
	// The buffer spans the whole body when that is below bufSize, so it
	// holds at least one record of every section the body has.
	d := decoder{r: r, buf: make([]byte, min(bufSize, size-headerSize))}
	offsets := make([]int32, n+1)
	for i := 0; i < len(offsets); {
		p, err := d.next(len(offsets)-i, 4)
		if err != nil {
			return nil, fmt.Errorf("graph: reading offsets: %w", err)
		}
		for ; len(p) > 0; p = p[4:] {
			offsets[i] = int32(le.Uint32(p))
			i++
		}
	}
	edges := make([]Edge, m)
	for i := 0; i < len(edges); {
		p, err := d.next(len(edges)-i, 8)
		if err != nil {
			return nil, fmt.Errorf("graph: reading edges: %w", err)
		}
		for ; len(p) > 0; p = p[8:] {
			edges[i] = Edge{To: VertexID(le.Uint32(p)), Weight: math.Float32frombits(le.Uint32(p[4:]))}
			i++
		}
	}
	var coords []Coord
	if flags&flagCoords != 0 {
		coords = make([]Coord, n)
	}
	for i := 0; i < len(coords); {
		p, err := d.next(len(coords)-i, 8)
		if err != nil {
			return nil, fmt.Errorf("graph: reading coords: %w", err)
		}
		for ; len(p) > 0; p = p[8:] {
			coords[i] = Coord{X: math.Float32frombits(le.Uint32(p)), Y: math.Float32frombits(le.Uint32(p[4:]))}
			i++
		}
	}
	var tags []bool
	if flags&flagTags != 0 {
		tags = make([]bool, n)
	}
	for i := 0; i < len(tags); {
		p, err := d.next(len(tags)-i, 1)
		if err != nil {
			return nil, fmt.Errorf("graph: reading tags: %w", err)
		}
		for _, b := range p {
			if b > 1 {
				return nil, fmt.Errorf("graph: tag byte %d of vertex %d", b, i)
			}
			tags[i] = b != 0
			i++
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
