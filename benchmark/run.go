package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are the knobs of one `run`.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	// scale shrinks the operation lists and setupRuns the cold
	// assemblies; only the smoke test changes them.
	scale     float64
	setupRuns int
}

// setupRuns cold assemblies per run; setup_s is their median.
const setupRuns = 31

// measured is everything one pass produced.
type measured struct {
	pass   *pass
	sum    summary
	eng    engineSide
	check  checked
	dur    durability
	setups []float64
	// why says what made the pass incorrect, if anything did.
	why string

	partitionTime time.Duration
	edgeCut       int

	// traced pass only
	spans []span
	rows  traceRows
	net   netTotals
}

// runResult is one run of one workload, as written to run.json.
type runResult struct {
	Ops            int               `json:"ops"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	Correct        bool              `json:"correct"`
	Why            string            `json:"why,omitempty"`
	TimedReads     int               `json:"timed_reads"`
	TailPercentile float64           `json:"tail_percentile"`
	OracleSamples  int               `json:"oracle_samples"`
	WallS          float64           `json:"wall_s"`
	Cut            bool              `json:"cut_by_guard,omitempty"`
	SetupRunsS     []float64         `json:"setup_runs_s"`
	EndToEnd       map[string]metric `json:"end_to_end"`
	Layers         map[string]metric `json:"layers,omitempty"`
}

// opsFor sizes a workload's fixed operation list.
func opsFor(wl *workload, opt options) int {
	return max(int(float64(wl.opsPerSecond)*opt.seconds*opt.scale), 40)
}

// runPass assembles a stack, drives the plan through it, and checks the
// answers (and, on durable workloads, what a restart would recover).
func runPass(wl *workload, in *inputs, pl *plan, opt options, tr *tracer) (*measured, error) {
	runs := opt.setupRuns
	if tr != nil {
		runs = 1 // setup_s comes from the untraced pass
	}
	st, setups, err := measureSetup(wl, in, tr, runs)
	if err != nil {
		return nil, err
	}
	defer st.removeDurable()
	defer st.close()

	// Twice the nominal length, and some: a box this much slower than the
	// reference gets a shorter run rather than a harness that never ends.
	maxWall := time.Duration((2.5*opt.seconds + 5) * float64(time.Second))
	p, err := drive(st, pl, maxWall)
	if err != nil {
		return nil, err
	}
	m := &measured{pass: p, setups: setups, partitionTime: st.partitionTime, edgeCut: st.edgeCut}
	m.eng = readEngine(st.eng, p.timedStart)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing the stack: %w", err)
	}

	base, _, err := in.graphFile(wl)
	if err != nil {
		return nil, err
	}
	samples := pickSamples(p, opt.seed, oracleSamples)
	var vs *versions
	if wl.durable {
		if vs, err = ackedVersions(base, p); err != nil {
			m.why = err.Error()
		}
	}
	if m.why == "" {
		if m.check, err = checkAnswers(base, vs, p, samples); err != nil {
			m.why = err.Error()
		} else if m.check.wrong > 0 {
			m.why = fmt.Sprintf("%d of %d sampled answers differ from the reference", m.check.wrong, m.check.samples)
		}
	}
	if m.why == "" && wl.durable {
		if m.dur, err = checkDurability(st, vs, p, samples); err != nil {
			m.why = err.Error()
		} else if !m.dur.ok {
			m.why = m.dur.why
		}
	}
	m.sum = summarize(p, m.check.wrong)
	if m.why == "" && m.sum.failed > 0 {
		m.why = fmt.Sprintf("%d of %d operations failed", m.sum.failed, m.sum.attempted)
	}
	if tr != nil {
		m.spans = tr.spans
		m.rows = rowsOf(p, tr.spans)
		m.net = p.net1.sub(p.net0)
	}
	return m, nil
}

// runWorkload runs one workload once: the untraced pass that yields the
// end-to-end numbers and, with opt.trace, a second traced pass over the
// same operations for the per-layer ones.
func runWorkload(wl *workload, in *inputs, opt options) (*runResult, error) {
	n := opsFor(wl, opt)
	pl, err := wl.gen(in, opt.seed, numClients(), n)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", wl.name, err)
	}
	u, err := runPass(wl, in, pl, opt, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	res := &runResult{
		Ops: n, Attempted: u.sum.attempted, Failed: u.sum.failed,
		Correct: u.why == "", Why: u.why,
		TimedReads: len(u.sum.readMS), TailPercentile: u.sum.tail, OracleSamples: u.check.samples,
		WallS: u.pass.wall.Seconds(), Cut: u.pass.cut, SetupRunsS: u.setups,
		EndToEnd: u.sum.endToEnd(wl, u.setups),
	}
	if !opt.trace {
		return res, nil
	}
	t, err := runPass(wl, in, pl, opt, newTracer())
	if err != nil {
		return nil, fmt.Errorf("%s (traced): %w", wl.name, err)
	}
	if t.why != "" && res.Correct {
		res.Correct, res.Why = false, "traced pass: "+t.why
	}
	res.Layers = layerMetrics(u, t)
	if err := writeTrace(filepath.Join(opt.outDir, wl.name+".trace.json"), wl, opt, t.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// traceFileRequests caps the requests whose spans are written out: the
// per-layer numbers use every span, the file is for reading.
const traceFileRequests = 20000

func writeTrace(path string, wl *workload, opt options, spans []span) error {
	kept := make([]span, 0, min(len(spans), 5*traceFileRequests))
	for _, s := range spans {
		if s.Req <= traceFileRequests {
			kept = append(kept, s)
		}
	}
	b, err := json.Marshal(map[string]any{
		"workload": wl.name, "seed": opt.seed, "seconds": opt.seconds,
		"spans_recorded": len(spans), "spans": kept,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
