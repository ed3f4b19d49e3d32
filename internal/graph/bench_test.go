package graph

import (
	"bytes"
	"io"
	"math/rand/v2"
	"testing"
)

// benchGraph is a graph the size of a generated social graph file: 50 000
// vertices of out-degree 4 (200 000 edges), with coords and tags, so every
// section of the format is present and the file (≈ 2.2 MB) is larger than
// Save's buffer.
func benchGraph() *Graph {
	const n, degree = 50_000, 4
	rng := rand.New(rand.NewPCG(5, 5))
	b := NewBuilder(n)
	coords := make([]Coord, n)
	tags := make([]bool, n)
	for v := range VertexID(n) {
		for range degree {
			b.AddEdge(v, VertexID(rng.IntN(n)), rng.Float32()*10)
		}
		coords[v] = Coord{X: rng.Float32() * 100, Y: rng.Float32() * 100}
		tags[v] = v%16 == 0
	}
	b.SetCoords(coords)
	b.SetTags(tags)
	return b.MustBuild()
}

// BenchmarkLoad decodes and validates benchGraph's file from memory.
func BenchmarkLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph().Save(&buf); err != nil {
		b.Fatal(err)
	}
	file := buf.Bytes()
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(bytes.NewReader(file), int64(len(file))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSave encodes benchGraph into a writer that drops the bytes.
func BenchmarkSave(b *testing.B) {
	g := benchGraph()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if err := g.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
