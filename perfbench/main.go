// Command perfbench is the repository benchmark. It runs one grid
// workload of simulator cells through harness.RunGrid with one worker,
// checks every cell's result against recorded digests, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the
// last line of its standard output:
//
//	{"correct": true, "attempted": 792, "failed": 0, "metrics": {"cells_per_s": {"value": 33.9, "unit": "1/s"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload testbed|wide|fallback --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --workload W --seed N --record-digests
//
// See perfbench/README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// A metricDef names one reported metric. The same table is in
// BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"cells_per_s", "1/s", "higher"},
	{"cell_ms_p50", "ms", "lower"},
	{"cell_ms_tail", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"sim_commits_per_kcycle", "1/kcycle", "higher"},
}

// perLayer lists the traced run's metrics: stage spans, simulated
// counters, the tracing overhead, then two per probe.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"stamp.new_s", "s", "lower"},
		{"seer.newsystem_s", "s", "lower"},
		{"stamp.setup_s", "s", "lower"},
		{"seer.run_s", "s", "lower"},
		{"stamp.validate_s", "s", "lower"},
		{"harness.overhead_s", "s", "lower"},
		{"sim.makespan_mcycles", "Mcycles", "lower"},
		{"htm.commits_per_attempt", "ratio", "higher"},
		{"htm.aborts_conflict", "count", "lower"},
		{"htm.aborts_capacity", "count", "lower"},
		{"htm.aborts_other", "count", "lower"},
		{"policy.sgl_share", "ratio", "lower"},
		{"policy.stm_share", "ratio", "lower"},
		{"spinlock.lock_wait_share", "ratio", "lower"},
		{"machine.park_skip_share", "ratio", "higher"},
		{"core.scheme_updates", "count", "lower"},
		{"telemetry.overhead", "ratio", "lower"},
	}
	for _, p := range probes {
		defs = append(defs, metricDef{p.name, "ns", "lower"}, metricDef{p.name + ".allocs", "allocs", "lower"})
	}
	return defs
}()

// probeBenchtime is how long testing.Benchmark runs each layer probe.
const probeBenchtime = "100ms"

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// info precedes the result line; the compare helper reads it.
type info struct {
	Workload       string `json:"perfbench"`
	Seed           int64  `json:"seed"`
	Trace          bool   `json:"trace"`
	Cells          int    `json:"cells"`
	TailPercentile int    `json:"tail_percentile"`
	Golden         bool   `json:"golden_digests"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: testbed, wide or fallback")
		seed    = fs.Int64("seed", 1, "seed the cells are built from")
		seconds = fs.Float64("seconds", 10, "host seconds to keep running passes")
		trace   = fs.Int("trace", 0, "1 for the traced run and per-layer metrics")
		record  = fs.Bool("record-digests", false, "print the seed's digest line for digests/<workload>.txt and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...) }
	w, err := lookupWorkload(*name)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		logf("--trace must be 0 or 1")
		return 2
	}
	cells := w.cells(*seed)

	if *record {
		p := runPass(cells, nil)
		if p.err != nil {
			logf("%v", p.err)
			return 1
		}
		digests := make([]string, len(cells))
		for i, res := range p.results {
			digests[i] = cellDigest(res)
		}
		fmt.Fprintf(stdout, "%d %s\n", *seed, strings.Join(digests, " "))
		return 0
	}

	chk, err := newChecker(w.Name, *seed, cells, logf)
	if err != nil {
		logf("%v", err)
		return 1
	}
	var (
		metrics map[string]float64
		defs    = endToEnd
	)
	if *trace == 1 {
		defs = perLayer
		tr := &tracer{clk: stagedClock()}
		metrics, err = tracedRun(cells, *seconds, chk, tr, probeBenchtime)
		if err == nil {
			err = tr.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.Name, *seed)))
		}
	} else {
		metrics, err = timedRun(cells, *seconds, chk)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}

	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			logf("metric %s has no finite value", d.Name)
			return 1
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info{w.Name, *seed, *trace == 1, len(cells), tailPercentile(len(cells)), chk.golden}); err != nil {
		logf("%v", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		logf("%v", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
