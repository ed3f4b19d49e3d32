package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"qgraph/internal/faultpoint"
	"qgraph/internal/graph"
)

// Durable snapshot file format ("QSNP"), little-endian:
//
//	magic   [4]byte  "QSNP"
//	version uint64   committed graph version the snapshot covers
//	graph   []byte   the materialized graph in QGR1 format (graph.Save)
//	crc     uint64   CRC-64/ECMA over everything above
//
// Files are written to a temp name and renamed into place, so a crash
// mid-write leaves a *.tmp the loader never considers; the trailing
// checksum additionally catches torn or bit-rotted files that did reach
// their final name (e.g. a crash racing a non-atomic filesystem). Loaders
// verify the checksum before parsing, so a corrupt checkpoint is skipped,
// never half-loaded.
const (
	fileMagic = "QSNP"
	fileExt   = ".qsnp"
	tmpSuffix = ".tmp"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// FileName returns the file name for a snapshot at the given version.
// Versions are zero-padded so lexical directory order is version order.
func FileName(version uint64) string {
	return fmt.Sprintf("snap-%016d%s", version, fileExt)
}

// WriteFile persists snap into dir atomically (temp file + rename) and
// returns the final path. The graph streams through graph.Save's buffer
// into the file and the checksum, with no copy of the whole file.
func WriteFile(dir string, snap *Snapshot) (string, error) {
	path := filepath.Join(dir, FileName(snap.Version))
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	// A failed persist must not leave its temp file behind — intermittent
	// disk errors on a long-running deployment would otherwise accumulate
	// multi-MB orphans (a real crash still can; pruneDisk sweeps those).
	fail := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	crc := crc64.New(crcTable)
	w := io.MultiWriter(f, crc)
	head := binary.LittleEndian.AppendUint64([]byte(fileMagic), snap.Version)
	if _, err := w.Write(head); err != nil {
		return fail(err)
	}
	if err := snap.Graph.Save(w); err != nil {
		return fail(fmt.Errorf("snapshot: encoding graph: %w", err))
	}
	if _, err := f.Write(binary.LittleEndian.AppendUint64(nil, crc.Sum64())); err != nil {
		return fail(err)
	}
	if faultpoint.Hit(faultpoint.SnapshotPersist) {
		// Simulated crash between write and rename: the bytes may or may
		// not have reached the disk, but the final name never appeared —
		// exactly the state a real crash leaves behind (including the
		// orphaned temp file, which the next successful cut sweeps).
		f.Close()
		return "", fmt.Errorf("snapshot: %w", faultpoint.ErrKilled)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// Load reads and verifies one snapshot file. A torn, truncated, or
// corrupted file returns an error without a partial snapshot.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// magic + version + crc is the minimum; the graph payload adds more.
	if len(raw) < 4+8+8 {
		return nil, fmt.Errorf("snapshot: %s: truncated (%d bytes)", path, len(raw))
	}
	body, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(tail) {
		return nil, fmt.Errorf("snapshot: %s: checksum mismatch", path)
	}
	if string(body[:4]) != fileMagic {
		return nil, fmt.Errorf("snapshot: %s: bad magic %q", path, body[:4])
	}
	version := binary.LittleEndian.Uint64(body[4:12])
	g, err := graph.Load(bytes.NewReader(body[12:]), int64(len(body)-12))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return &Snapshot{Version: version, Graph: g}, nil
}

// skippedCorrupt counts snapshot files LoadLatest had to skip as corrupt,
// process-wide, so checkpoint rot is visible before the last intact file
// also goes.
var skippedCorrupt atomic.Int64

// SkippedCorrupt returns the process-wide count of snapshot files skipped
// as corrupt by LoadLatest. Safe from any goroutine.
func SkippedCorrupt() int64 { return skippedCorrupt.Load() }

// LoadLatest scans dir for the newest loadable snapshot. Corrupt or torn
// files are skipped (an older intact checkpoint is a correct, if staler,
// recovery point), but never silently: each skip is logged via slog and
// counted, so a directory of rotted checkpoints is distinguishable from
// an empty one. It returns (nil, nil) when the directory holds no usable
// snapshot.
func LoadLatest(dir string) (*Snapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*"+fileExt))
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	for _, p := range paths {
		snap, err := Load(p)
		if err == nil {
			return snap, nil
		}
		skippedCorrupt.Add(1)
		slog.Warn("snapshot: skipping corrupt checkpoint", "path", p, "error", err)
	}
	return nil, nil
}
