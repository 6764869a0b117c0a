package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"seer/internal/harness"
)

// Set-up passes repeat until both minimums are met; setup_s is their
// median.
const (
	setupMinReps   = 7
	setupMinSecond = 1.0
)

// A pass is one harness.RunGrid sweep over a workload's cells with one
// worker, the way seerbench runs a grid with -parallel 1.
type pass struct {
	wall    time.Duration
	cellDur []time.Duration // host time of each completed cell
	alloc   uint64          // host bytes allocated during the pass
	results []harness.Result
	err     error
}

// runPass runs the cells through RunGrid. onCell, when set, is called
// after each completed cell with its host start and end times.
func runPass(cells []cell, onCell func(i int, start, end time.Time)) pass {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	p := pass{cellDur: make([]time.Duration, 0, len(cells))}
	start := time.Now()
	last := start
	p.results, p.err = harness.RunGrid(harness.Options{Parallel: 1}, specsOf(cells), func(i int, _ harness.Result) {
		now := time.Now()
		p.cellDur = append(p.cellDur, now.Sub(last))
		if onCell != nil {
			onCell(i, last, now)
		}
		last = now
	})
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0
	return p
}

func (p pass) done() int { return len(p.cellDur) }

// setupSeconds builds and populates every cell's system without running
// it, pass after pass, and returns the median of the passes' set-up
// time (stamp.New + seer.NewSystem + Workload.Setup summed over cells).
func setupSeconds(cells []cell) (float64, error) {
	clk := stagedClock()
	setupCells := stagedSpecs(cells, setupPrefix)
	var reps []float64
	start := time.Now()
	for len(reps) < setupMinReps || time.Since(start).Seconds() < setupMinSecond {
		var total time.Duration
		p := runPass(setupCells, func(int, time.Time, time.Time) {
			total += clk.marks[markSetupEnd] - clk.marks[markNewStart]
		})
		if p.err != nil {
			return 0, fmt.Errorf("set-up pass: %w", p.err)
		}
		reps = append(reps, total.Seconds())
	}
	return median(reps), nil
}

// timedRun measures the end-to-end metrics: set-up passes, then timed
// passes while the next one is expected to end within seconds (at least
// one). cell_ms_tail is the median over passes of each pass's tail
// percentile, so one slow stretch of the host moves it less than a
// percentile over the pooled cells would.
func timedRun(cells []cell, seconds float64, chk *checker) (map[string]float64, error) {
	setup, err := setupSeconds(cells)
	if err != nil {
		return nil, err
	}
	var (
		cellMs          []float64
		tails           []float64
		allocs          []float64
		wall            time.Duration
		done            int
		commits, cycles uint64
	)
	start := time.Now()
	var last time.Duration
	for n := 1; n == 1 || fits(start, last, seconds); n++ {
		p := runPass(cells, nil)
		last = p.wall
		chk.pass(fmt.Sprintf("pass %d", n), p.results, p.done(), p.err)
		chk.log("pass %d: %d cells in %.2fs", n, p.done(), p.wall.Seconds())
		passMs := make([]float64, len(p.cellDur))
		for i, d := range p.cellDur {
			passMs[i] = float64(d) / float64(time.Millisecond)
		}
		cellMs = append(cellMs, passMs...)
		tails = append(tails, percentile(passMs, tailPercentile(len(cells))))
		allocs = append(allocs, float64(p.alloc)/(1<<20))
		wall += p.wall
		done += p.done()
		if n == 1 {
			commits, cycles = simTotals(p.results[:p.done()])
		}
	}
	if done == 0 {
		return nil, fmt.Errorf("no cell completed")
	}
	return map[string]float64{
		"cells_per_s":            float64(done) / wall.Seconds(),
		"cell_ms_p50":            median(cellMs),
		"cell_ms_tail":           median(tails),
		"setup_s":                setup,
		"peak_rss_mb":            peakRSSMiB(),
		"alloc_mb":               median(allocs),
		"sim_commits_per_kcycle": 1000 * float64(commits) / float64(cycles),
	}, nil
}

// fits reports whether one more round as long as the last one would
// end within seconds of start.
func fits(start time.Time, last time.Duration, seconds float64) bool {
	return (time.Since(start) + last).Seconds() <= seconds
}

// simTotals sums commits and makespans over every report.
func simTotals(results []harness.Result) (commits, cycles uint64) {
	for _, res := range results {
		for _, rep := range res.Reports {
			commits += rep.Commits()
			cycles += rep.MakespanCycles
		}
	}
	return commits, cycles
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile.
func percentile(vals []float64, p int) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}
