package main

import (
	"sync"
	"time"

	"seer"
	"seer/internal/stamp"
)

// The traced and set-up passes run through harness.RunGrid like the
// timed passes, but on workloads registered under a prefixed name that
// wrap the real ones. The wrapper stamps the host clock at each call the
// harness makes into the workload, so the stage spans come from outside
// the program:
//
//	stamp.New ─┬─ factory call                        → stamp.new
//	           └─ factory return .. Setup call        → seer.newsystem
//	Setup                                             → stamp.setup
//	Workers call .. Validate call                     → seer.run
//	Validate                                          → stamp.validate
//
// The harness builds the system between the factory and Setup, and runs
// it between Workers and Validate (sys.Run(wl.Workers(n))). A set-up
// wrapper returns no workers and skips validation, so its pass builds
// and populates every cell's system without running it.

const (
	tracedPrefix = "traced:"
	setupPrefix  = "setup:"
)

// Stage marks, in call order within one cell.
const (
	markNewStart = iota
	markNewEnd
	markSetupStart
	markSetupEnd
	markRunStart
	markValidateStart
	markValidateEnd
	numMarks
)

// stages are the spans of a cell, in the order the cell crosses them;
// each runs from its opening mark to the next mark.
var stages = []struct {
	name string
	open int
}{
	{"stamp.new", markNewStart},
	{"seer.newsystem", markNewEnd},
	{"stamp.setup", markSetupStart},
	{"seer.run", markRunStart},
	{"stamp.validate", markValidateStart},
}

// stageClock holds the marks of the cell in flight. RunGrid runs the
// traced and set-up passes with one worker on the caller's goroutine,
// so one clock serves every cell in turn.
type stageClock struct {
	base  time.Time
	marks [numMarks]time.Duration
}

func (c *stageClock) mark(i int) { c.marks[i] = time.Since(c.base) }

// reset clears the marks before a cell, so a stage the cell never
// reached reads as empty.
func (c *stageClock) reset() { c.marks = [numMarks]time.Duration{} }

type stagedWorkload struct {
	stamp.Workload
	clock     *stageClock
	setupOnly bool
}

func (w *stagedWorkload) Setup(sys *seer.System) error {
	w.clock.mark(markSetupStart)
	err := w.Workload.Setup(sys)
	w.clock.mark(markSetupEnd)
	return err
}

func (w *stagedWorkload) Workers(n int) []seer.Worker {
	if w.setupOnly {
		return nil
	}
	w.clock.mark(markRunStart)
	return w.Workload.Workers(n)
}

func (w *stagedWorkload) Validate(sys *seer.System) error {
	if w.setupOnly {
		return nil
	}
	w.clock.mark(markValidateStart)
	err := w.Workload.Validate(sys)
	w.clock.mark(markValidateEnd)
	return err
}

var (
	registerOnce sync.Once
	clock        *stageClock
)

// stagedClock registers the wrapped workloads once per process (the
// stamp registry is global) and returns the clock they stamp.
func stagedClock() *stageClock {
	registerOnce.Do(func() {
		clock = &stageClock{base: time.Now()}
		for _, name := range stamp.Names() {
			for prefix, setupOnly := range map[string]bool{tracedPrefix: false, setupPrefix: true} {
				stamp.Register(prefix+name, func(scale float64) stamp.Workload {
					clock.reset()
					clock.mark(markNewStart)
					wl, err := stamp.New(name, scale)
					if err != nil {
						panic(err) // name came from stamp.Names
					}
					clock.mark(markNewEnd)
					return &stagedWorkload{Workload: wl, clock: clock, setupOnly: setupOnly}
				})
			}
		}
	})
	return clock
}

// stagedSpecs renames every cell's workload to its wrapper.
func stagedSpecs(cells []cell, prefix string) []cell {
	out := make([]cell, len(cells))
	for i, c := range cells {
		c.Spec.Workload = prefix + c.Spec.Workload
		out[i] = c
	}
	return out
}
