package main

import (
	"fmt"
	"math"

	"seer"
	"seer/internal/harness"
	"seer/internal/stamp"
)

// A cell is one grid point of a workload: the harness spec that
// seerbench would run for it, plus a stable name for reports and
// digest mismatches.
type cell struct {
	ID   string
	Spec harness.Spec
}

// A workload is a named grid of cells built from the benchmark seed.
type workload struct {
	Name  string
	cells func(seed int64) []cell
}

// Scales keep one pass over each grid at a few host seconds.
const (
	testbedScale  = 0.5
	wideScale     = 0.5
	fallbackScale = 1.5
	// fallbackReplicas runs every fallback cell at this many seeds so
	// the grid has enough cells for a tail percentile.
	fallbackReplicas = 4
	// replicaStride separates replica seeds the way harness.RunOne
	// separates the repetitions of one spec.
	replicaStride = 7919
)

// fallbackWorkloads are contention- and capacity-bound by construction.
var fallbackWorkloads = []string{"capbound", "adv-clique", "adv-star"}

// fallbackPolicies cover every fall-back path: SGL (HLE, RTM, SCM,
// Seer, Backoff) and the STM commit path (PhTM).
var fallbackPolicies = []seer.PolicyKind{
	seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM,
	seer.PolicySeer, seer.PolicyPhased, seer.PolicyBackoff,
}

var workloads = []workload{
	{
		Name: "testbed",
		cells: func(seed int64) []cell {
			var out []cell
			for _, wl := range stamp.Suite {
				out = append(out, newCell(harness.Spec{
					Workload: wl, Scale: testbedScale, Policy: seer.PolicySeq,
					Threads: 1, Runs: 1, Seed: seed,
				}, ""))
				for _, pol := range harness.Fig3Policies {
					for _, th := range harness.Fig3Threads {
						out = append(out, newCell(harness.Spec{
							Workload: wl, Scale: testbedScale, Policy: pol,
							Threads: th, Runs: 1, Seed: seed,
						}, ""))
					}
				}
			}
			return out
		},
	},
	{
		Name: "wide",
		cells: func(seed int64) []cell {
			var out []cell
			for _, wl := range stamp.Suite {
				for _, pol := range harness.ScalingPolicies {
					for _, shape := range harness.ScalingShapes {
						out = append(out, newCell(harness.Spec{
							Workload: wl, Scale: wideScale, Policy: pol,
							Threads: shape.Threads(), Topology: shape, Runs: 1, Seed: seed,
						}, shape.String()))
					}
				}
			}
			return out
		},
	},
	{
		Name: "fallback",
		cells: func(seed int64) []cell {
			var out []cell
			for _, wl := range fallbackWorkloads {
				for _, pol := range fallbackPolicies {
					for r := 0; r < fallbackReplicas; r++ {
						out = append(out, newCell(harness.Spec{
							Workload: wl, Scale: fallbackScale, Policy: pol,
							Threads: 8, Runs: 1, Seed: seed + int64(r)*replicaStride,
						}, fmt.Sprintf("r%d", r)))
					}
				}
			}
			return out
		},
	},
}

func newCell(sp harness.Spec, suffix string) cell {
	id := fmt.Sprintf("%s/%s/%dt", sp.Workload, sp.Policy, sp.Threads)
	if suffix != "" {
		id += "/" + suffix
	}
	return cell{ID: id, Spec: sp}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tailPercentile is the highest whole percentile with at least ten of
// a pass's n cells beyond it.
func tailPercentile(n int) int {
	return int(math.Floor(100 * (1 - 10/float64(n))))
}

func specsOf(cells []cell) []harness.Spec {
	out := make([]harness.Spec, len(cells))
	for i, c := range cells {
		out[i] = c.Spec
	}
	return out
}
