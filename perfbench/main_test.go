package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seer"
	"seer/internal/harness"
)

func TestCellsDeterministic(t *testing.T) {
	sizes := map[string]int{"testbed": 264, "wide": 80, "fallback": 72}
	for _, w := range workloads {
		a, b := w.cells(7), w.cells(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two cell lists for seed 7 differ", w.Name)
		}
		if len(a) != sizes[w.Name] {
			t.Errorf("%s: %d cells, want %d", w.Name, len(a), sizes[w.Name])
		}
		ids := map[string]bool{}
		for _, c := range a {
			if ids[c.ID] {
				t.Errorf("%s: duplicate cell id %s", w.Name, c.ID)
			}
			ids[c.ID] = true
		}
		if reflect.DeepEqual(a, w.cells(8)) {
			t.Errorf("%s: seeds 7 and 8 give the same cells", w.Name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{264: 96, 80: 87, 72: 86} {
		got := tailPercentile(n)
		if got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
		if beyond := float64(n) * float64(100-got) / 100; beyond < 10 {
			t.Errorf("tailPercentile(%d) leaves %.1f cells beyond it", n, beyond)
		}
	}
}

func TestGoldenDigestsMatch(t *testing.T) {
	for _, w := range workloads {
		cells := w.cells(1)
		want, err := goldenDigests(w.Name, 1, len(cells))
		if err != nil || want == nil {
			t.Fatalf("%s: no golden digests for seed 1 (err %v)", w.Name, err)
		}
		// The first cells are cheap; the traced runs check the rest.
		p := runPass(cells[:2], nil)
		if p.err != nil {
			t.Fatal(p.err)
		}
		for i, res := range p.results {
			if got := cellDigest(res); got != want[i] {
				t.Errorf("%s: cell %s digest %s, golden %s", w.Name, cells[i].ID, got, want[i])
			}
		}
	}
}

func TestPerturbedReportFails(t *testing.T) {
	cells := tinyWorkload.cells(1)
	p := runPass(cells, nil)
	if p.err != nil {
		t.Fatal(p.err)
	}
	chk := &checker{cells: cells, log: t.Logf}
	chk.pass("reference", p.results, p.done(), nil)
	if chk.failed != 0 {
		t.Fatalf("reference pass failed %d cells", chk.failed)
	}

	perturbed := append([]harness.Result(nil), p.results...)
	reps := append([]seer.Report(nil), perturbed[1].Reports...)
	reps[0].HTM.Commits++
	perturbed[1].Reports = reps
	chk.pass("perturbed", perturbed, len(perturbed), nil)
	if chk.failed != 1 {
		t.Errorf("perturbed report: %d failed cells, want 1", chk.failed)
	}

	chk.pass("stopped", p.results, 1, errors.New("cell failed"))
	if chk.failed != 2 || chk.attempted != 2*len(cells)+2 {
		t.Errorf("stopped pass: failed %d attempted %d", chk.failed, chk.attempted)
	}
}

// tinyWorkload has a few fast cells covering the HTM, SGL, STM and
// Seer paths.
var tinyWorkload = workload{
	Name: "tiny",
	cells: func(seed int64) []cell {
		return []cell{
			newCell(harness.Spec{Workload: "intruder", Scale: 0.05, Policy: seer.PolicySeer, Threads: 4, Runs: 1, Seed: seed}, ""),
			newCell(harness.Spec{Workload: "capbound", Scale: 0.2, Policy: seer.PolicyPhased, Threads: 8, Runs: 1, Seed: seed}, ""),
			newCell(harness.Spec{Workload: "adv-star", Scale: 0.2, Policy: seer.PolicyHLE, Threads: 8, Runs: 1, Seed: seed}, ""),
			newCell(harness.Spec{Workload: "kmeans-low", Scale: 0.05, Policy: seer.PolicyRTM, Threads: 16,
				Topology: harness.ScalingShapes[1], Runs: 1, Seed: seed}, ""),
		}
	},
}

// runTiny runs the benchmark on the tiny workload and decodes its
// result line.
func runTiny(t *testing.T, args ...string) result {
	t.Helper()
	saved := workloads
	workloads = append(workloads[:len(workloads):len(workloads)], tinyWorkload)
	defer func() { workloads = saved }()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--workload", "tiny", "--seconds", "0"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result: correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkEmitted(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want unit %q", d.Name, v, d.Unit)
		}
	}
}

func TestEveryEndToEndMetricEmitted(t *testing.T) {
	checkEmitted(t, runTiny(t, "--trace", "0"), endToEnd)
}

func TestTracedRunEmitsLayersAndSpans(t *testing.T) {
	cells := tinyWorkload.cells(1)
	chk := &checker{cells: cells, log: t.Logf}
	tr := &tracer{clk: stagedClock()}
	metrics, err := tracedRun(cells, 0, chk, tr, "1x")
	if err != nil {
		t.Fatal(err)
	}
	// Every traced cell's digest must equal its untraced one.
	if chk.failed != 0 || chk.attempted == 0 {
		t.Errorf("traced run: attempted %d failed %d", chk.attempted, chk.failed)
	}
	if len(metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if v, ok := metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s: %v, %v", d.Name, v, ok)
		}
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		stages[s.Stage]++
	}
	want := map[string]int{"pass": 1, "cell": 4, "stamp.new": 4, "seer.newsystem": 4,
		"stamp.setup": 4, "seer.run": 4, "stamp.validate": 4}
	if !reflect.DeepEqual(stages, want) {
		t.Errorf("span stages %v, want %v", stages, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"testbed", "wide", "fallback"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
}
