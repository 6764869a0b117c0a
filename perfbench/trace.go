package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seer"
	"seer/internal/harness"
)

// telemetryInterval is the snapshot interval of the traced pass, in
// simulated cycles; the lock-wait counters come from the snapshots.
const telemetryInterval = 1 << 16

// A span is one timed interval of the traced pass: a pass, a cell, or a
// stage of a cell. Times are host nanoseconds since the process began
// tracing.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a pass
	Cell   string `json:"cell,omitempty"`
	Stage  string `json:"stage"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	clk   *stageClock
	spans []span
}

func (t *tracer) add(parent int, cellID, stage string, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: cellID, Stage: stage,
		Start: int64(start), End: int64(end)})
	return id
}

// tracedPass runs the cells through their traced wrappers with telemetry
// on, recording a span per pass, cell and stage. It returns the pass and
// the host seconds per stage summed over cells, with harness.overhead
// the cells' time outside every stage.
func (t *tracer) tracedPass(cells []cell) (pass, map[string]float64) {
	traced := stagedSpecs(cells, tracedPrefix)
	for i := range traced {
		traced[i].Spec.MetricsInterval = telemetryInterval
	}
	passID := t.add(0, "", "pass", time.Since(t.clk.base), 0)
	totals := map[string]float64{}
	p := runPass(traced, func(i int, start, end time.Time) {
		cs, ce := start.Sub(t.clk.base), end.Sub(t.clk.base)
		cellID := t.add(passID, cells[i].ID, "cell", cs, ce)
		inStages := time.Duration(0)
		for _, st := range stages {
			from, to := t.clk.marks[st.open], t.clk.marks[st.open+1]
			t.add(cellID, cells[i].ID, st.name, from, to)
			totals[st.name] += (to - from).Seconds()
			inStages += to - from
		}
		totals["harness.overhead"] += (ce - cs - inStages).Seconds()
	})
	t.spans[passID-1].End = int64(time.Since(t.clk.base))
	return p, totals
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedRun measures the per-layer metrics: pairs of one untraced and
// one traced pass while the next pair is expected to end within seconds
// (at least one pair), then the layer probes. Every traced cell's digest
// is checked against the same reference as the untraced ones, so a
// traced run that perturbs the simulation fails.
func tracedRun(cells []cell, seconds float64, chk *checker, tr *tracer, probeTime string) (map[string]float64, error) {
	var (
		untracedCPS, tracedCPS []float64
		stageRuns              = map[string][]float64{}
		last                   pass
	)
	start := time.Now()
	var round time.Duration
	for n := 1; n == 1 || fits(start, round, seconds); n++ {
		roundStart := time.Now()
		// Alternate which pass of the pair runs first, so host drift
		// within a run does not bias the overhead.
		var (
			u, p  pass
			spent map[string]float64
		)
		if n%2 == 1 {
			u = runPass(cells, nil)
			p, spent = tr.tracedPass(cells)
		} else {
			p, spent = tr.tracedPass(cells)
			u = runPass(cells, nil)
		}
		chk.pass(fmt.Sprintf("untraced pass %d", n), u.results, u.done(), u.err)
		chk.pass(fmt.Sprintf("traced pass %d", n), p.results, p.done(), p.err)
		untracedCPS = append(untracedCPS, float64(u.done())/u.wall.Seconds())
		tracedCPS = append(tracedCPS, float64(p.done())/p.wall.Seconds())
		for name, s := range spent {
			stageRuns[name] = append(stageRuns[name], s)
		}
		last = p
		round = time.Since(roundStart)
	}
	if last.done() == 0 {
		return nil, fmt.Errorf("no traced cell completed")
	}
	out := simCounters(last.results[:last.done()])
	for name, vals := range stageRuns {
		out[name+"_s"] = median(vals)
	}
	out["telemetry.overhead"] = median(untracedCPS) / median(tracedCPS)
	timed, err := runProbes(probeTime)
	if err != nil {
		return nil, err
	}
	for k, v := range timed {
		out[k] = v
	}
	return out, nil
}

// simCounters are the simulated-time layer counters of one pass. They
// are exact: a change that only speeds up the simulator leaves them
// identical.
func simCounters(results []harness.Result) map[string]float64 {
	var (
		makespan, threadCycles            uint64
		commits, htmCommits, hwAttempts   uint64
		conflict, capacity, other         uint64
		sgl, stm                          uint64
		lockWait, parkSkipped, schemeUpds uint64
	)
	for _, res := range results {
		for _, rep := range res.Reports {
			makespan += rep.MakespanCycles
			threadCycles += uint64(rep.Threads) * rep.MakespanCycles
			commits += rep.Commits()
			htmCommits += rep.HTM.Commits
			hwAttempts += rep.HWAttempts
			conflict += rep.HTM.ConflictAborts
			capacity += rep.HTM.CapacityAborts
			other += rep.HTM.Aborts - rep.HTM.ConflictAborts - rep.HTM.CapacityAborts
			sgl += rep.Modes[seer.ModeSGL]
			stm += rep.Modes[seer.ModeSTM]
			for _, s := range rep.Timeline {
				lockWait += s.LockWait
				parkSkipped += s.ParkSkipped
			}
			if rep.Seer != nil {
				schemeUpds += rep.Seer.SchemeUpdates
			}
		}
	}
	return map[string]float64{
		"sim.makespan_mcycles":     float64(makespan) / 1e6,
		"htm.commits_per_attempt":  ratio(htmCommits, hwAttempts),
		"htm.aborts_conflict":      float64(conflict),
		"htm.aborts_capacity":      float64(capacity),
		"htm.aborts_other":         float64(other),
		"policy.sgl_share":         ratio(sgl, commits),
		"policy.stm_share":         ratio(stm, commits),
		"spinlock.lock_wait_share": ratio(lockWait, threadCycles),
		"machine.park_skip_share":  ratio(parkSkipped, lockWait),
		"core.scheme_updates":      float64(schemeUpds),
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
