package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment records where a report was measured.
type environment struct {
	Go         string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Clients    int    `json:"clients"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func readEnvironment() environment {
	env := environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Clients: numClients(), Commit: "unknown", Kernel: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// aggregate is one metric over the runs of a report.
type aggregate struct {
	Median float64 `json:"median"`
	// Spread is the distance between the first and third quartile as a
	// share of the median (0 with fewer than two runs).
	Spread float64   `json:"spread"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

func aggregateOf(unit string, values []float64) aggregate {
	a := aggregate{Median: median(values), Unit: unit, Values: values}
	if len(values) >= 2 && a.Median != 0 {
		q1, q3 := quartiles(values)
		a.Spread = (q3 - q1) / a.Median
	}
	return a
}

// workloadReport is one workload's part of run.json.
type workloadReport struct {
	Why      string               `json:"why"`
	Runs     []*runResult         `json:"runs"`
	EndToEnd map[string]aggregate `json:"end_to_end"`
	Layers   map[string]aggregate `json:"layers,omitempty"`
}

func (w *workloadReport) fold() {
	fold := func(pick func(*runResult) map[string]metric) map[string]aggregate {
		values := make(map[string][]float64)
		units := make(map[string]string)
		for _, r := range w.Runs {
			for name, m := range pick(r) {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		if len(values) == 0 {
			return nil
		}
		out := make(map[string]aggregate, len(values))
		for name, v := range values {
			out[name] = aggregateOf(units[name], v)
		}
		return out
	}
	w.EndToEnd = fold(func(r *runResult) map[string]metric { return r.EndToEnd })
	w.Layers = fold(func(r *runResult) map[string]metric { return r.Layers })
}

// report is run.json (and baseline.json).
type report struct {
	Schema      int                        `json:"schema"`
	Environment environment                `json:"environment"`
	Seed        uint64                     `json:"seed"`
	Seconds     float64                    `json:"seconds"`
	Reps        int                        `json:"reps"`
	Metrics     []metricDef                `json:"end_to_end_metrics"`
	Workloads   map[string]*workloadReport `json:"workloads"`
}

// print writes every metric by name with its unit and, for end-to-end
// metrics, its bound.
func (w *workloadReport) print(out io.Writer, name string) {
	attempted, failed, correct := 0, 0, true
	for _, r := range w.Runs {
		attempted += r.Attempted
		failed += r.Failed
		correct = correct && r.Correct
		if r.Why != "" {
			fmt.Fprintf(out, "  INCORRECT: %s\n", r.Why)
		}
		if r.Cut {
			fmt.Fprintf(out, "  note: the wall-time guard cut a run short after %.1f s\n", r.WallS)
		}
	}
	last := w.Runs[len(w.Runs)-1]
	fmt.Fprintf(out, "%s  (%d runs, %d ops each, %d timed reads, tail = p%.4g, %d answers checked)\n",
		name, len(w.Runs), last.Ops, last.TimedReads, 100*last.TailPercentile, last.OracleSamples)
	fmt.Fprintf(out, "  %-34s %14.6g       (attempted %d, failed %d, correct %v)\n",
		"failed_share", ratio(float64(failed), float64(attempted)), attempted, failed, correct)
	for _, def := range endToEnd {
		if a, ok := w.EndToEnd[def.Name]; ok {
			fmt.Fprintf(out, "  %-34s %14.6g %-5s bound %2.0f%%  spread %4.1f%%\n",
				def.Name, a.Median, a.Unit, 100*def.Bound, 100*a.Spread)
		}
	}
	for _, def := range perLayer {
		if a, ok := w.Layers[def.Name]; ok {
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", def.Name, a.Median, a.Unit)
		}
	}
}
