package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
)

func testGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddBiEdge(graph.VertexID(v), graph.VertexID(v+1), float32(v+1))
	}
	return b.MustBuild()
}

func TestPolicyDue(t *testing.T) {
	var zero Policy
	if zero.Enabled() || zero.Due(1<<20, 1<<30, time.Hour) {
		t.Fatal("zero policy must never trigger")
	}
	p := Policy{EveryOps: 100, EveryBytes: 1000, Interval: time.Minute}
	if !p.Enabled() {
		t.Fatal("armed policy reports disabled")
	}
	cases := []struct {
		ops     int
		bytes   int64
		elapsed time.Duration
		want    bool
	}{
		{0, 1 << 30, time.Hour, false}, // nothing committed: never cut
		{99, 999, time.Second, false},
		{100, 0, 0, true},
		{1, 1000, 0, true},
		{1, 0, time.Minute, true},
	}
	for _, c := range cases {
		if got := p.Due(c.ops, c.bytes, c.elapsed); got != c.want {
			t.Errorf("Due(%d, %d, %v) = %v, want %v", c.ops, c.bytes, c.elapsed, got, c.want)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 8)
	path, err := WriteFile(dir, &Snapshot{Version: 42, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != FileName(42) {
		t.Fatalf("wrote %s, want %s", path, FileName(42))
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 42 || snap.Graph.NumVertices() != 8 || snap.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("loaded %+v", snap)
	}
	for v := 0; v < 8; v++ {
		a, b := g.Out(graph.VertexID(v)), snap.Graph.Out(graph.VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d edge %d: %+v vs %+v", v, i, a[i], b[i])
			}
		}
	}
}

// TestGoldenFile pins the QSNP format: a checkpoint written by an earlier
// codec loads at its version into the graph of the QGR1 golden file, and
// WriteFile at that version gives back the file byte for byte.
func TestGoldenFile(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.qsnp")
	if err != nil {
		t.Fatal(err)
	}
	goldenGraph, err := os.ReadFile("../graph/testdata/golden.qgr")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Load("testdata/golden.qsnp")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 42 {
		t.Fatalf("golden.qsnp loads at version %d, want 42", snap.Version)
	}
	var buf bytes.Buffer
	if err := snap.Graph.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), goldenGraph) {
		t.Fatalf("golden.qsnp holds the graph\n%x\nwant the one in golden.qgr\n%x", buf.Bytes(), goldenGraph)
	}
	path, err := WriteFile(t.TempDir(), snap)
	if err != nil {
		t.Fatal(err)
	}
	re, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, golden) {
		t.Fatalf("golden.qsnp re-writes as\n%x\nwant\n%x", re, golden)
	}
}

// TestLoadRejectsCorruption: torn and bit-flipped files fail the checksum
// instead of producing a half-loaded graph, and LoadLatest falls back to
// the newest intact checkpoint.
func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 8)
	if _, err := WriteFile(dir, &Snapshot{Version: 1, Graph: g}); err != nil {
		t.Fatal(err)
	}
	path2, err := WriteFile(dir, &Snapshot{Version: 2, Graph: g})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	// Torn write: the file stops mid-payload.
	if err := os.WriteFile(path2, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path2); err == nil {
		t.Fatal("torn file loaded")
	}
	snap, err := LoadLatest(dir)
	if err != nil || snap == nil || snap.Version != 1 {
		t.Fatalf("LoadLatest after torn v2 = %+v, %v; want v1", snap, err)
	}

	// Bit flip inside the payload.
	raw[20] ^= 0x40
	if err := os.WriteFile(path2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path2); err == nil {
		t.Fatal("corrupt file loaded")
	}

	// Empty directory: no snapshot, no error.
	snap, err = LoadLatest(t.TempDir())
	if err != nil || snap != nil {
		t.Fatalf("LoadLatest(empty) = %+v, %v", snap, err)
	}
}

// TestLoadLatestObservesSkips: skipped corrupt checkpoints are counted,
// never swallowed — a directory of rotted files must be distinguishable
// from an empty one.
func TestLoadLatestObservesSkips(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 8)
	if _, err := WriteFile(dir, &Snapshot{Version: 1, Graph: g}); err != nil {
		t.Fatal(err)
	}
	path2, err := WriteFile(dir, &Snapshot{Version: 2, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0x40
	if err := os.WriteFile(path2, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	before := SkippedCorrupt()
	snap, err := LoadLatest(dir)
	if err != nil || snap == nil || snap.Version != 1 {
		t.Fatalf("LoadLatest = %+v, %v; want v1", snap, err)
	}
	if got := SkippedCorrupt() - before; got != 1 {
		t.Fatalf("SkippedCorrupt advanced by %d, want 1", got)
	}

	// Every file corrupt: nil snapshot, every skip counted.
	raw1, err := os.ReadFile(filepath.Join(dir, FileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	raw1[20] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, FileName(1)), raw1, 0o644); err != nil {
		t.Fatal(err)
	}
	before = SkippedCorrupt()
	snap, err = LoadLatest(dir)
	if err != nil || snap != nil {
		t.Fatalf("all-corrupt dir: snap=%+v err=%v", snap, err)
	}
	if got := SkippedCorrupt() - before; got != 2 {
		t.Fatalf("SkippedCorrupt advanced by %d over an all-corrupt dir, want 2", got)
	}
}

func TestStoreMemory(t *testing.T) {
	s := NewStore("", 2)
	g := testGraph(t, 4)
	for v := uint64(1); v <= 3; v++ {
		floor, err := s.Add(&Snapshot{Version: v, Graph: g})
		if err != nil || floor != v {
			t.Fatalf("Add(%d) = %d, %v", v, floor, err)
		}
	}
	if s.Latest().Version != 3 {
		t.Fatalf("latest %d", s.Latest().Version)
	}
	if s.At(2) == nil || s.At(3) == nil {
		t.Fatal("retained snapshots not found")
	}
	if s.At(1) != nil {
		t.Fatal("evicted snapshot still found (keep=2)")
	}
	s.AccountTruncated(7)
	st := s.Stats()
	if st.Snapshots != 3 || st.LastSnapshotVersion != 3 || st.TruncatedOps != 7 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStoreDiskFloorAndPrune: the truncation floor follows durability, the
// At fallback reads evicted snapshots back from disk, and old files are
// pruned.
func TestStoreDiskFloorAndPrune(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 2)
	g := testGraph(t, 4)
	for v := uint64(1); v <= 4; v++ {
		floor, err := s.Add(&Snapshot{Version: v, Graph: g})
		if err != nil || floor != v {
			t.Fatalf("Add(%d) = %d, %v", v, floor, err)
		}
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "snap-*"+fileExt))
	if len(paths) != 2 {
		t.Fatalf("disk holds %d snapshots, want 2 (pruned)", len(paths))
	}
	// Version 3 was evicted from memory but survives on disk.
	if snap := s.At(3); snap == nil || snap.Version != 3 {
		t.Fatalf("At(3) from disk = %+v", snap)
	}
	if s.At(1) != nil {
		t.Fatal("pruned snapshot still resolvable")
	}
}

// TestStorePersistFailureHoldsFloor is the crash-during-persist property:
// when the durable write dies, the floor stays at the previous on-disk
// checkpoint (the log must not be truncated past what a restart can load),
// while the in-memory snapshot still serves the current process.
func TestStorePersistFailureHoldsFloor(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	s := NewStore(dir, 2)
	g := testGraph(t, 4)
	if floor, err := s.Add(&Snapshot{Version: 1, Graph: g}); err != nil || floor != 1 {
		t.Fatalf("Add(1) = %d, %v", floor, err)
	}

	disarm := faultpoint.Arm(faultpoint.SnapshotPersist, func(...int) bool { return true })
	floor, err := s.Add(&Snapshot{Version: 2, Graph: g})
	disarm()
	if err == nil {
		t.Fatal("persist fault did not surface")
	}
	if floor != 1 {
		t.Fatalf("floor advanced to %d past the durable checkpoint", floor)
	}
	if s.Latest().Version != 2 {
		t.Fatal("in-memory snapshot lost on persist failure")
	}
	st := s.Stats()
	if st.PersistFailures != 1 || st.Persisted != 1 {
		t.Fatalf("stats %+v", st)
	}
	// A restart sees only the durable checkpoint.
	snap, err := LoadLatest(dir)
	if err != nil || snap == nil || snap.Version != 1 {
		t.Fatalf("LoadLatest = %+v, %v; want durable v1", snap, err)
	}

	// The simulated crash left its temp file, as a real crash would.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+fileExt+tmpSuffix)); len(tmps) != 1 {
		t.Fatalf("expected the crashed persist's temp file, found %v", tmps)
	}

	// The next successful cut re-advances the floor past the gap — and
	// sweeps the orphaned temp file.
	if floor, err := s.Add(&Snapshot{Version: 3, Graph: g}); err != nil || floor != 3 {
		t.Fatalf("Add(3) = %d, %v", floor, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
		t.Fatalf("orphaned temp files not swept: %v", tmps)
	}
}

// TestWriteFileErrorCleansTemp: a persist that fails for a real reason
// (not a crash) must not leave its temp file behind.
func TestWriteFileErrorCleansTemp(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 4)
	// Make the final rename fail by occupying the target with a directory.
	if err := os.Mkdir(filepath.Join(dir, FileName(5)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFile(dir, &Snapshot{Version: 5, Graph: g}); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
		t.Fatalf("failed persist left temp files: %v", tmps)
	}
}

// FuzzLoad feeds Load arbitrary .qsnp bytes, seeded with the files
// TestLoadRejectsCorruption builds (intact, torn, bit-flipped) and one
// graph with coordinates and tags. Each input is loaded twice: as it is,
// and with its last eight bytes replaced by the checksum of the rest —
// without that, no mutated input gets past the CRC to the parser behind
// it. A file is either rejected or accepted as the one canonical encoding
// of its snapshot — WriteFile gives back the same bytes — and loading
// never panics and never allocates more than a fixed multiple of the file,
// whatever vertex and edge counts its header declares.
func FuzzLoad(f *testing.F) {
	seedDir := f.TempDir()
	seed := func(snap *Snapshot) []byte {
		path, err := WriteFile(seedDir, snap)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	plain := seed(&Snapshot{Version: 2, Graph: testGraph(f, 8)})
	b := graph.NewBuilder(3)
	b.AddBiEdge(0, 1, 1.5)
	b.AddEdge(2, 0, 0)
	b.SetCoords([]graph.Coord{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}})
	b.SetTags([]bool{true, false, true})
	full := seed(&Snapshot{Version: 1 << 40, Graph: b.MustBuild()})
	flipped := bytes.Clone(plain)
	flipped[20] ^= 0x40
	f.Add(plain)
	f.Add(full)
	f.Add(plain[:len(plain)/2]) // torn write
	f.Add(flipped)              // bit flip inside the payload
	f.Add(plain[:4+8+8])        // magic, version and a checksum, no graph
	f.Add([]byte{})

	in, out := f.TempDir(), f.TempDir()
	path := filepath.Join(in, "fuzz"+fileExt)
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= 8 {
			body := raw[:len(raw)-8]
			inputs = append(inputs, binary.LittleEndian.AppendUint64(bytes.Clone(body), crc64.Checksum(body, crcTable)))
		}
		for _, file := range inputs {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			// ReadFile's copy and the CSR arrays (each its wire size) take
			// twice the file, graph.Load's one buffer at most 1 MiB; the
			// third multiple of the file covers the small allocations
			// around them. TotalAlloc is process-wide and the fuzz worker
			// has goroutines of its own, so only an excess that repeats is
			// Load's.
			limit := uint64(3*len(file) + 1<<20)
			var snap *Snapshot
			var err error
			for try := 1; ; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				snap, err = Load(path)
				runtime.ReadMemStats(&after)
				got := after.TotalAlloc - before.TotalAlloc
				if got <= limit {
					break
				}
				if try == 3 {
					t.Fatalf("loading %d bytes allocated %d (limit %d)", len(file), got, limit)
				}
			}
			if err != nil {
				continue
			}
			again, err := WriteFile(out, snap)
			if err != nil {
				t.Fatalf("loaded snapshot v%d does not re-encode: %v", snap.Version, err)
			}
			re, err := os.ReadFile(again)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, file) {
				t.Fatalf("accepted file %x re-encodes as %x", file, re)
			}
		}
	})
}
