package main

import (
	"os"
	"path/filepath"
	"testing"

	"qgraph/internal/graph"
)

// idOf loads the graph file at path and returns its identity.
func idOf(t *testing.T, path string) uint64 {
	t.Helper()
	g, err := graph.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return graphID(path, g)
}

// TestGraphIDIgnoresHowThePathIsSpelled: nodes that name one graph file
// by different paths agree on its identity, so a worker given an absolute
// path opens the WAL a controller given a relative one wrote. Another base
// name, or another graph under the same name, is another identity.
func TestGraphIDIgnoresHowThePathIsSpelled(t *testing.T) {
	save := func(path string, n int) {
		t.Helper()
		b := graph.NewBuilder(n)
		for v := graph.VertexID(0); int(v)+1 < n; v++ {
			b.AddEdge(v, v+1, 1)
		}
		if err := b.MustBuild().SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bw.qgr")
	save(path, 8)
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(cwd, path)
	if err != nil {
		t.Fatal(err)
	}

	id := idOf(t, path)
	for _, p := range []string{rel, dir + "/./bw.qgr", dir + "//bw.qgr"} {
		if got := idOf(t, p); got != id {
			t.Errorf("graph id via %q = %x, via %q = %x", p, got, path, id)
		}
	}

	renamed := filepath.Join(dir, "gy.qgr")
	save(renamed, 8)
	other := filepath.Join(t.TempDir(), "bw.qgr")
	save(other, 9)
	for _, p := range []string{renamed, other} {
		if idOf(t, p) == id {
			t.Errorf("graph id via %q equals that of %q", p, path)
		}
	}
}
