package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
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
// Save streams every section through one buffer of at most bufSize bytes,
// a whole number of records at a time, so it holds no second copy of the
// file. Load reads each word section with one read straight into the array
// it becomes, and the tags through a buffer of at most tagChunk bytes, so
// it allocates the graph's arrays and little else.
const (
	magic        = "QGR1"
	flagCoords   = 1 << 0
	flagTags     = 1 << 1
	maxFileVerts = 1 << 31 // sanity bound when loading untrusted files
	headerSize   = 4 + 4 + 8 + 8
	bufSize      = 1 << 20
	tagChunk     = 4 << 10
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
	offsets := make([]int32, n+1)
	if err := readWords(r, wireBytes(offsets)); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	edges := make([]Edge, m)
	if err := readWords(r, wireBytes(edges)); err != nil {
		return nil, fmt.Errorf("graph: reading edges: %w", err)
	}
	var coords []Coord
	if flags&flagCoords != 0 {
		coords = make([]Coord, n)
		if err := readWords(r, wireBytes(coords)); err != nil {
			return nil, fmt.Errorf("graph: reading coords: %w", err)
		}
	}
	var tags []bool
	if flags&flagTags != 0 {
		tags = make([]bool, n)
		buf := make([]byte, min(n, tagChunk))
		for i := 0; i < len(tags); {
			p := buf[:min(len(tags)-i, len(buf))]
			if _, err := io.ReadFull(r, p); err != nil {
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
	}
	return FromCSR(offsets, edges, coords, tags)
}

// Edge and Coord are two 4-byte words each, with no padding, so an array
// of either holds its section's records in the file's layout. A size other
// than 8 indexes past this one-element array, which does not compile.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(Edge{})-8]
	_ = [1]struct{}{}[unsafe.Sizeof(Coord{})-8]
)

// wireBytes views the memory of an int32, Edge or Coord array as bytes, so
// a read fills the array in place. With the size checks above, it is the
// module's one use of unsafe.
func wireBytes[T int32 | Edge | Coord](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// bigEndian reports whether this host keeps a word's most significant byte
// first, which the file's little-endian words must then be turned into.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// readWords fills p, the bytes of a section's array, from r with one read,
// and on a big-endian host then turns each word into the host's order.
func readWords(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		return err
	}
	if bigEndian {
		swapWords(p)
	}
	return nil
}

// swapWords reverses the bytes of each 4-byte word of p in place.
func swapWords(p []byte) {
	for i := 0; i+4 <= len(p); i += 4 {
		p[i], p[i+1], p[i+2], p[i+3] = p[i+3], p[i+2], p[i+1], p[i]
	}
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
