package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"seer/internal/harness"
)

// Golden digests: digests/<workload>.txt holds one line per recorded
// seed, "<seed> <digest of cell 0> <digest of cell 1> ...", in the
// workload's cell order. Regenerate a line with
//
//	bash perfbench/run.sh --workload <name> --seed <n> --record-digests
//
//go:embed digests
var goldenFiles embed.FS

// cellDigest hashes the Summary of every report of a cell. The telemetry
// timeline and inference trajectory are left out: they exist only when
// the traced pass switches them on, and the digest must show that doing
// so leaves the simulation itself unchanged.
func cellDigest(res harness.Result) string {
	h := sha256.New()
	for _, rep := range res.Reports {
		rep.Timeline, rep.Inference = nil, nil
		h.Write([]byte(rep.Summary()))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenDigests returns the recorded digests of a workload at seed, or
// nil when that seed was not recorded.
func goldenDigests(workload string, seed int64, ncells int) ([]string, error) {
	data, err := goldenFiles.ReadFile("digests/" + workload + ".txt")
	if err != nil {
		return nil, nil
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		s, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("digests/%s.txt: bad seed %q", workload, fields[0])
		}
		if s != seed {
			continue
		}
		if len(fields)-1 != ncells {
			return nil, fmt.Errorf("digests/%s.txt: seed %d has %d digests, want %d",
				workload, seed, len(fields)-1, ncells)
		}
		return fields[1:], nil
	}
	return nil, sc.Err()
}

// checker counts the cells whose digest differs from the reference: the
// golden digests when the seed was recorded, otherwise the first pass
// of this run.
type checker struct {
	cells  []cell
	want   []string
	golden bool
	log    func(format string, args ...any)

	attempted, failed int
}

func newChecker(workload string, seed int64, cells []cell, log func(string, ...any)) (*checker, error) {
	want, err := goldenDigests(workload, seed, len(cells))
	if err != nil {
		return nil, err
	}
	return &checker{cells: cells, want: want, golden: want != nil, log: log}, nil
}

// pass checks the results of one pass. done is the number of cells the
// pass completed; a pass that stopped early on an error has one failed
// cell at index done.
func (c *checker) pass(label string, results []harness.Result, done int, runErr error) {
	got := make([]string, done)
	for i := 0; i < done; i++ {
		got[i] = cellDigest(results[i])
	}
	if c.want == nil && runErr == nil {
		c.want = got
	}
	c.attempted += done
	for i, d := range got {
		if i < len(c.want) && d != c.want[i] {
			c.failed++
			c.log("%s: cell %s digest %s, want %s", label, c.cells[i].ID, d, c.want[i])
		}
	}
	if runErr != nil {
		c.attempted++
		c.failed++
		c.log("%s: cell %s: %v", label, c.cells[done].ID, runErr)
	}
}
