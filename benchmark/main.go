// Command benchmark measures Q-Graph end to end and layer by layer.
//
//	benchmark run     [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-reps R] [-out DIR]
//	benchmark layers  [-out DIR]
//	benchmark compare BASELINE.json CANDIDATE.json
//
// `run` assembles, per workload, the stack `qgraphd -role controller -serve`
// assembles and drives it over HTTP with a closed loop of clients. Every
// workload issues a fixed list of operations generated from -seed and sized
// by -seconds (what the reference box gets through in that time), checks a
// sample of the answers against the sequential reference, prints every
// metric with its unit, and writes DIR/run.json. With -trace 1 a second,
// traced pass over the same operations yields the per-layer metrics and
// DIR/<workload>.trace.json. With a single workload the last line of
// standard output is one JSON object for the benchmark driver.
//
// See README.md for the metrics, the workloads and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "layers":
		err = cmdLayers(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchmark run|layers|compare [flags]   (see README.md)")
	os.Exit(2)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated operations")
	seconds := fs.Float64("seconds", 10, "nominal length of the timed operations; sizes the fixed operation lists")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	reps := fs.Int("reps", 1, "runs per workload; medians and spreads are reported over them")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for run.json, traces and scratch files")
	_ = fs.Parse(args)
	if *seconds <= 0 || *reps < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return fmt.Errorf("run: bad arguments")
	}
	selected := workloads
	if *name != "all" {
		wl := workloadByName(*name)
		if wl == nil {
			return fmt.Errorf("run: unknown workload %q", *name)
		}
		selected = []*workload{wl}
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, scale: 1, setupRuns: setupRuns}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(opt.outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	in, err := newInputs(tmp)
	if err != nil {
		return err
	}

	rep := &report{Schema: 1, Environment: readEnvironment(), Seed: *seed, Seconds: *seconds,
		Reps: *reps, Metrics: endToEnd, Workloads: make(map[string]*workloadReport)}
	for _, wl := range selected {
		wr := &workloadReport{Why: wl.why}
		for r := 0; r < *reps; r++ {
			res, err := runWorkload(wl, in, opt)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, res)
		}
		wr.fold()
		wr.print(os.Stdout, wl.name)
		rep.Workloads[wl.name] = wr
	}
	if err := writeJSON(filepath.Join(opt.outDir, "run.json"), rep); err != nil {
		return err
	}
	if len(selected) == 1 {
		return driverLine(rep.Workloads[selected[0].name], opt.trace)
	}
	return nil
}

// driverLine prints the one-line result the benchmark driver reads: the
// end-to-end metrics of BENCHMARK.json, or with -trace 1 the per-layer ones.
func driverLine(wr *workloadReport, trace bool) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range wr.Runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	defs, from := driverEndToEnd(), wr.EndToEnd
	if trace {
		defs, from = perLayer, wr.Layers
	}
	for _, def := range defs {
		out.Metrics[def.Name] = metric{from[def.Name].Median, def.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
