package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != 1 {
		return nil, fmt.Errorf("%s: schema %d, want 1", path, r.Schema)
	}
	return &r, nil
}

// verdict classifies one workload × end-to-end metric pairing: the
// candidate's median may be worse than the baseline's by at most the
// bound; where either side's own run-to-run spread is wider than the
// bound, the pairing is unresolved, not unchanged.
func verdict(def metricDef, base, cand aggregate) (delta float64, v string) {
	delta = ratio(cand.Median-base.Median, base.Median)
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > def.Bound:
		return delta, "regressed"
	case max(base.Spread, cand.Spread) > def.Bound:
		return delta, "unresolved"
	}
	return delta, "ok"
}

// cmdCompare prints one row per workload × end-to-end metric and fails on
// any regressed or unresolved row.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare: want BASELINE.json CANDIDATE.json")
	}
	base, err := readReport(args[0])
	if err != nil {
		return err
	}
	cand, err := readReport(args[1])
	if err != nil {
		return err
	}
	if base.Seconds != cand.Seconds {
		return fmt.Errorf("compare: runs of %g s and %g s issue different operation lists", base.Seconds, cand.Seconds)
	}
	names := make([]string, 0, len(base.Workloads))
	for n := range base.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %-14s %12s %12s %8s %6s %14s  %s\n",
		"workload", "metric", "baseline", "candidate", "delta", "bound", "spread b/c", "verdict")
	bad := 0
	for _, n := range names {
		bw, cw := base.Workloads[n], cand.Workloads[n]
		if cw == nil {
			fmt.Printf("%-16s missing from the candidate\n", n)
			bad++
			continue
		}
		for _, r := range cw.Runs {
			if !r.Correct {
				fmt.Printf("%-16s candidate run incorrect: %s\n", n, r.Why)
				bad++
			}
		}
		for _, def := range endToEnd {
			b, ok := bw.EndToEnd[def.Name]
			if !ok {
				continue
			}
			c, ok := cw.EndToEnd[def.Name]
			if !ok {
				fmt.Printf("%-16s %-14s missing from the candidate\n", n, def.Name)
				bad++
				continue
			}
			delta, v := verdict(def, b, c)
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-16s %-14s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%/%5.1f%%  %s\n",
				n, def.Name, b.Median, c.Median, 100*delta, 100*def.Bound, 100*b.Spread, 100*c.Spread, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("compare: %d rows regressed, unresolved or missing", bad)
	}
	return nil
}
