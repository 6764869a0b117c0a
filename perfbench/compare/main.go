// Command compare summarizes perfbench result files, and compares two
// sets of them: the alternating-pairs A/B of the repository benchmark.
//
// Each result file is the standard output of one perfbench run. Files
// are grouped by workload and by traced/untraced run; per group and
// metric, compare prints each side's median, quartiles (as Python's
// statistics.quantiles(values, n=4) computes them) and spread (the
// quartile distance over the median). With two sets it also prints the
// ratio of medians and how many same-seed pairs B wins, ties counting
// for neither. For end-to-end metrics it checks two criteria: every
// spread except setup_s's within the metric's bound, and B's median not
// worse than A's by more than the bound. It exits 1 when a check fails.
//
// Usage, from the repository root:
//
//	go -C perfbench run ./compare [-spec BENCHMARK.json] DIR_A [DIR_B]
//
// where each DIR holds result files, for example written by
//
//	for s in 1 2 3 4 5 6 7 8 9 10; do
//	    bash perfbench/run.sh --workload testbed --seed $s --seconds 40 --trace 0 > A/testbed-$s.json
//	done
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type run struct {
	Workload string
	Seed     int64
	Trace    bool
	Correct  bool
	Metrics  map[string]value
}

type groupKey struct {
	Workload string
	Trace    bool
}

func main() {
	spec := flag.String("spec", "BENCHMARK.json", "benchmark description with metric directions and bounds")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] DIR_A [DIR_B]")
		os.Exit(2)
	}
	code, err := compare(os.Stdout, *spec, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func compare(w io.Writer, specPath string, dirs []string) (int, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	sets := make([]map[groupKey][]run, len(dirs))
	for i, dir := range dirs {
		if sets[i], err = loadDir(dir); err != nil {
			return 0, err
		}
	}
	var keys []groupKey
	for k := range sets[0] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Workload != keys[j].Workload {
			return keys[i].Workload < keys[j].Workload
		}
		return !keys[i].Trace && keys[j].Trace
	})

	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight|tabwriter.Debug)
	header := "workload\tmetric\tunit\tA n\tA median\tA q1\tA q3\tA spread\t"
	if len(sets) == 2 {
		header += "B n\tB median\tB q1\tB q3\tB spread\tB/A\tB wins\t"
	}
	fmt.Fprintln(tw, header+"check\t")
	for _, k := range keys {
		defs := spec.EndToEnd
		name := k.Workload
		if k.Trace {
			defs, name = spec.PerLayer, k.Workload+" (traced)"
		}
		a := sets[0][k]
		var b []run
		if len(sets) == 2 {
			b = sets[1][k]
		}
		for _, side := range [][]run{a, b} {
			for _, r := range side {
				if !r.Correct {
					fmt.Fprintf(tw, "%s\tincorrect run, seed %d\t\n", name, r.Seed)
					code = 1
				}
			}
		}
		for _, d := range defs {
			av := values(a, d.Name)
			if len(av) == 0 {
				continue
			}
			aq := quartiles(av)
			line := fmt.Sprintf("%s\t%s\t%s\t%d\t%.5g\t%.5g\t%.5g\t%.3f\t",
				name, d.Name, d.Unit, len(av), aq[1], aq[0], aq[2], spread(aq))
			// setup_s times set-up passes of well under a second, so its
			// spread is mostly host jitter; only its median is held to
			// the bound.
			checkSpread := d.Bound != nil && d.Name != "setup_s"
			var problems []string
			if checkSpread && spread(aq) > *d.Bound {
				problems = append(problems, "A noisy")
			}
			if len(sets) == 2 {
				bv := values(b, d.Name)
				if len(bv) == 0 {
					fmt.Fprintln(tw, line+"\t\t\t\t\t\t\tmissing in B\t")
					code = 1
					continue
				}
				bq := quartiles(bv)
				wins, pairs := pairWins(a, b, d)
				line += fmt.Sprintf("%d\t%.5g\t%.5g\t%.5g\t%.3f\t%.4f\t%d/%d\t",
					len(bv), bq[1], bq[0], bq[2], spread(bq), bq[1]/aq[1], wins, pairs)
				if checkSpread && spread(bq) > *d.Bound {
					problems = append(problems, "B noisy")
				}
				if d.Bound != nil && worse(aq[1], bq[1], d.Better) > *d.Bound {
					problems = append(problems, "B worse")
				}
			}
			check := "ok"
			if len(problems) > 0 {
				check = strings.Join(problems, ", ")
				code = 1
			}
			fmt.Fprintln(tw, line+check+"\t")
		}
	}
	return code, tw.Flush()
}

// loadDir reads every perfbench result file in dir.
func loadDir(dir string) (map[groupKey][]run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	out := map[groupKey][]run{}
	for _, p := range paths {
		r, ok, err := loadFile(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if ok {
			k := groupKey{r.Workload, r.Trace}
			out[k] = append(out[k], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no perfbench result files", dir)
	}
	return out, nil
}

// loadFile parses one run's output: an info line naming the workload,
// and the result object on the last line. Files without an info line
// are skipped.
func loadFile(path string) (run, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, false, err
	}
	defer f.Close()
	var (
		r       run
		hasInfo bool
		last    string
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		var info struct {
			Workload *string `json:"perfbench"`
			Seed     int64   `json:"seed"`
			Trace    bool    `json:"trace"`
		}
		if json.Unmarshal([]byte(line), &info) == nil && info.Workload != nil {
			r.Workload, r.Seed, r.Trace, hasInfo = *info.Workload, info.Seed, info.Trace, true
		}
	}
	if err := sc.Err(); err != nil || !hasInfo {
		return run{}, false, err
	}
	var res struct {
		Correct bool             `json:"correct"`
		Metrics map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return run{}, false, fmt.Errorf("last line: %w", err)
	}
	r.Correct, r.Metrics = res.Correct, res.Metrics
	return r, true, nil
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns Q1, median and Q3 by the "exclusive" method of
// Python's statistics.quantiles(values, n=4).
func quartiles(vals []float64) [3]float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// worse is how much worse b is than a, as a share of a (negative when
// b is better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// pairWins counts the same-seed pairs in which B beats A.
func pairWins(a, b []run, d metricSpec) (wins, pairs int) {
	bySeed := map[int64]float64{}
	for _, r := range a {
		if v, ok := r.Metrics[d.Name]; ok {
			bySeed[r.Seed] = v.Value
		}
	}
	for _, r := range b {
		av, ok := bySeed[r.Seed]
		bv, ok2 := r.Metrics[d.Name]
		if !ok || !ok2 {
			continue
		}
		pairs++
		if worse(av, bv.Value, d.Better) < 0 {
			wins++
		}
	}
	return wins, pairs
}
