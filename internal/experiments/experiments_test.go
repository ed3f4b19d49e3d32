package experiments

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"qgraph/internal/metrics"
)

// tinyScale is the smallest scale that still exercises every code path.
func tinyScale() Scale {
	s := QuickScale()
	s.BWScale, s.GYScale = 2048, 8192
	s.Queries, s.Disturb, s.BarrierQueries, s.ScaleQueries = 40, 8, 12, 16
	s.Latency.WorkerWorker = 50 * time.Microsecond
	s.Latency.WorkerController = 25 * time.Microsecond
	s.Cooldown = 100 * time.Millisecond
	s.CheckEvery = 20 * time.Millisecond
	return s
}

// TestEveryExperimentRuns smoke-runs every registered experiment at tiny
// scale and sanity-checks the emitted tables.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short")
	}
	sc := tinyScale()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := r(sc)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tab.ID != id {
				t.Errorf("table id %q, want %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s: row %v has %d cells, want %d", id, row, len(row), len(tab.Columns))
				}
			}
			out := tab.String()
			if !strings.Contains(out, tab.Title) {
				t.Errorf("%s: rendered table lacks title", id)
			}
			t.Logf("\n%s", out)
		})
	}
}

// TestLookupUnknown checks error handling for bad ids.
func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// TestScalesSane validates the preset scales.
func TestScalesSane(t *testing.T) {
	for name, sc := range map[string]Scale{
		"default": DefaultScale(), "quick": QuickScale(), "paper": PaperScale(),
	} {
		if sc.Queries <= 0 || sc.Workers <= 0 || sc.Parallel <= 0 {
			t.Errorf("%s scale has zero fields: %+v", name, sc)
		}
		if sc.BWScale <= 0 || sc.GYScale <= 0 {
			t.Errorf("%s scale has zero graph scales", name)
		}
	}
}

// TestReadmeListsTheRegistry: README "Reproduce the paper's figures" has
// one table row per registered experiment and no other, so it cannot list
// a figure that is gone — nor a row the test would miss (a planted one is
// caught).
func TestReadmeListsTheRegistry(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	if got := readmeIDs(t, readme); !slices.Equal(got, IDs()) {
		t.Fatalf("README table lists %v, registry has %v", got, IDs())
	}
	planted := strings.Replace(readme, "| `fig5a` |", "| `fig6e` | Fig. 6e | gone |\n| `fig5a` |", 1)
	if got := readmeIDs(t, planted); slices.Equal(got, IDs()) {
		t.Fatalf("a planted row went unnoticed: %v", got)
	}
}

// readmeIDs returns the sorted ids in the first column of the README
// figures table.
func readmeIDs(t *testing.T, readme string) []string {
	t.Helper()
	_, sec, ok := strings.Cut(readme, "\n## Reproduce the paper's figures\n")
	if !ok {
		t.Fatal(`README has no "Reproduce the paper's figures" section`)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var ids []string
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(cells[1], " `") {
			continue // prose, header or separator row
		}
		ids = append(ids, strings.Trim(cells[1], " `"))
	}
	slices.Sort(ids)
	return ids
}

// TestBinByCompletion checks the decile binning helper.
func TestBinByCompletion(t *testing.T) {
	rec := newTestRecorder(t, 20)
	bins := binByCompletion(rec, 10)
	if len(bins) != 10 {
		t.Fatalf("got %d bins", len(bins))
	}
	for i, v := range bins {
		// Queries i*2 and i*2+1 land in bin i with latencies i*2 and
		// i*2+1 seconds → mean = i*2 + 0.5.
		want := float64(i*2) + 0.5
		if v != want {
			t.Errorf("bin %d = %v, want %v", i, v, strconv.FormatFloat(want, 'f', -1, 64))
		}
	}
}

// newTestRecorder builds a recorder with n queries of known latencies
// (query i: latency i seconds).
func newTestRecorder(t *testing.T, n int) *metrics.Recorder {
	t.Helper()
	t0 := time.Now()
	rec := metrics.NewRecorder()
	for i := 0; i < n; i++ {
		rec.RecordQuery(metrics.QueryRecord{
			ID:          int64(i),
			ScheduledAt: t0,
			Latency:     time.Duration(i) * time.Second,
			Supersteps:  1,
		})
	}
	return rec
}
