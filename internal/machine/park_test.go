package machine

import (
	"errors"
	"slices"
	"testing"

	"seer/internal/topology"
)

// The park/wake tests drive ParkOn/WakeKey directly, with hand-rolled
// poll loops mirroring the spinlock package's shape: poll (Tick(load) +
// check), park on busy, re-poll after the wake. Observation equivalence
// against real spinning is asserted by comparing the exact clocks at
// which polls happen.

const (
	tpPeriod   = 27 // SpinQuantum + DirectLoad of the default cost model
	tpPollCost = 2  // DirectLoad
)

// spinUntil simulates the ticking loop ParkOn replaces: poll every
// tpPeriod cycles until pred() is true, and return the cycle of the
// observing poll.
func spinUntil(c *Ctx, pred func() bool) uint64 {
	for {
		c.Tick(tpPollCost)
		if pred() {
			return c.Clock()
		}
		c.Tick(tpPeriod - tpPollCost)
	}
}

// parkEngine builds an engine with n hardware threads for park tests.
func parkEngine(t *testing.T, n int) *Engine {
	t.Helper()
	cores := n
	return mustEngine(t, Config{Topo: topology.MustFromFlat(n, cores), Seed: 1, Cost: DefaultCostModel()})
}

// parkUntil is the event-driven equivalent: poll once, park on key while
// pred() is false.
func parkUntil(c *Ctx, key uint64, pred func() bool) uint64 {
	for {
		c.Tick(tpPollCost)
		if pred() {
			return c.Clock()
		}
		c.ParkOn(key, tpPeriod, tpPollCost, 0)
	}
}

// TestParkObservationEquivalence: for a range of release cycles, a parked
// waiter must observe the flag at exactly the poll cycle the ticking loop
// observes it at.
func TestParkObservationEquivalence(t *testing.T) {
	for rel := uint64(1); rel < 200; rel += 7 {
		var spinObs, parkObs uint64
		for variant := 0; variant < 2; variant++ {
			eng := parkEngine(t, 2)
			flag := false
			obs := &spinObs
			wait := spinUntil
			if variant == 1 {
				obs = &parkObs
				wait = func(c *Ctx, pred func() bool) uint64 {
					return parkUntil(c, 42, pred)
				}
			}
			if _, err := eng.Run([]func(*Ctx){
				func(c *Ctx) {
					*obs = wait(c, func() bool { return flag })
				},
				func(c *Ctx) {
					c.Tick(rel)
					flag = true
					c.WakeKey(42)
				},
			}); err != nil {
				t.Fatalf("rel=%d variant=%d: %v", rel, variant, err)
			}
		}
		if spinObs != parkObs {
			t.Fatalf("rel=%d: spin observes at %d, park at %d", rel, spinObs, parkObs)
		}
	}
}

// TestParkWakeSameCycleTieBreak: a release at exactly a waiter's poll
// boundary is observable in that slot only by waiters with a higher
// thread id than the releaser (heap order runs the lower id first).
func TestParkWakeSameCycleTieBreak(t *testing.T) {
	// Thread 1 releases at cycle 2+27k (a boundary of thread 0's and
	// thread 2's poll trains, which both start polling at cycle 2).
	rel := uint64(2 + 27*3)
	for variant := 0; variant < 2; variant++ {
		eng := parkEngine(t, 3)
		flag := false
		var lowObs, highObs uint64
		wait := spinUntil
		if variant == 1 {
			wait = func(c *Ctx, pred func() bool) uint64 {
				return parkUntil(c, 7, pred)
			}
		}
		if _, err := eng.Run([]func(*Ctx){
			func(c *Ctx) { lowObs = wait(c, func() bool { return flag }) },
			func(c *Ctx) {
				c.Tick(rel)
				flag = true
				c.WakeKey(7)
			},
			func(c *Ctx) { highObs = wait(c, func() bool { return flag }) },
		}); err != nil {
			t.Fatalf("variant=%d: %v", variant, err)
		}
		// Thread 0 (id below the releaser) polls at rel before the release
		// runs: it cannot observe until the next boundary. Thread 2 polls
		// at rel after the release: it observes in the same slot.
		if lowObs != rel+27 {
			t.Errorf("variant=%d: low-id waiter observed at %d, want %d", variant, lowObs, rel+27)
		}
		if highObs != rel {
			t.Errorf("variant=%d: high-id waiter observed at %d, want %d", variant, highObs, rel)
		}
	}
}

// TestBoundedParkDeadline: with no wake, a bounded park resumes at its
// final poll boundary, exactly where a bounded spin loop gives up.
func TestBoundedParkDeadline(t *testing.T) {
	eng := parkEngine(t, 1)
	const budget = 5
	var polls int
	var gaveUpAt uint64
	if _, err := eng.Run([]func(*Ctx){func(c *Ctx) {
		i := 0
		for {
			c.Tick(tpPollCost)
			polls++
			if i >= budget {
				gaveUpAt = c.Clock()
				return
			}
			before := c.Clock()
			c.ParkOn(99, tpPeriod, tpPollCost, budget-i)
			i += int((c.Clock() + tpPollCost - before) / tpPeriod)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	// First poll at tpPollCost, then budget more boundaries.
	if want := uint64(tpPollCost + budget*tpPeriod); gaveUpAt != want {
		t.Errorf("gave up at cycle %d, want %d", gaveUpAt, want)
	}
	// The park jumps straight to the deadline: exactly two simulated polls.
	if polls != 2 {
		t.Errorf("simulated %d polls, want 2 (first + deadline)", polls)
	}
}

// TestBoundedParkWakeKeepsBudget: a wake partway through a bounded park
// must charge the skipped boundaries against the poll budget.
func TestBoundedParkWakeKeepsBudget(t *testing.T) {
	eng := parkEngine(t, 2)
	const budget = 10
	busy := true
	var gaveUp bool
	var doneAt uint64
	if _, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			i := 0
			for {
				c.Tick(tpPollCost)
				if !busy {
					return
				}
				if i >= budget {
					gaveUp = true
					doneAt = c.Clock()
					return
				}
				before := c.Clock()
				c.ParkOn(5, tpPeriod, tpPollCost, budget-i)
				i += int((c.Clock() + tpPollCost - before) / tpPeriod)
			}
		},
		func(c *Ctx) {
			// Wake after ~4 boundaries without freeing the flag: the waiter
			// re-parks with its remaining budget and gives up on schedule.
			c.Tick(tpPollCost + 4*tpPeriod - 3)
			c.WakeKey(5)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if !gaveUp {
		t.Fatal("waiter did not give up")
	}
	if want := uint64(tpPollCost + budget*tpPeriod); doneAt != want {
		t.Errorf("gave up at cycle %d, want %d (budget unaffected by spurious wake)", doneAt, want)
	}
}

// TestParkDeadlock: when every remaining thread parks unboundedly with no
// waker left, Run must fail with ErrDeadlock instead of hanging, and the
// engine must stay reusable.
func TestParkDeadlock(t *testing.T) {
	eng := parkEngine(t, 2)
	_, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			c.Tick(tpPollCost)
			c.ParkOn(1, tpPeriod, tpPollCost, 0)
			t.Error("waiter 0 resumed without a wake")
		},
		func(c *Ctx) {
			c.Tick(5)
			c.ParkOn(2, tpPeriod, tpPollCost, 0)
			t.Error("waiter 1 resumed without a wake")
		},
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// The engine must be immediately reusable after the drain.
	makespan, err := eng.Run([]func(*Ctx){func(c *Ctx) { c.Tick(10) }})
	if err != nil || makespan != 10 {
		t.Fatalf("reuse after deadlock: makespan=%d err=%v", makespan, err)
	}
}

// TestParkSkippedAccounting: the skipped-cycles counter must equal the
// virtual time the waiter did not simulate (park cycle to re-poll start).
func TestParkSkippedAccounting(t *testing.T) {
	eng := parkEngine(t, 2)
	flag := false
	var skipped, parkedAt, resumedAt uint64
	if _, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			c.Tick(tpPollCost)
			parkedAt = c.Clock()
			c.ParkOn(3, tpPeriod, tpPollCost, 0)
			resumedAt = c.Clock()
			c.Tick(tpPollCost)
			if !flag {
				t.Error("woken waiter does not observe the flag")
			}
			skipped = c.ParkSkipped()
		},
		func(c *Ctx) {
			c.Tick(500)
			flag = true
			c.WakeKey(3)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if want := resumedAt - parkedAt; skipped != want {
		t.Errorf("ParkSkipped() = %d, want %d", skipped, want)
	}
	if skipped == 0 {
		t.Error("no cycles skipped across a 500-cycle wait")
	}
}

// TestWakeKeyIsSelective: a wake on one key must not disturb threads
// parked on another.
func TestWakeKeyIsSelective(t *testing.T) {
	eng := parkEngine(t, 3)
	_, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			c.Tick(tpPollCost)
			c.ParkOn(10, tpPeriod, tpPollCost, 0)
			// Woken by the matching WakeKey(10) below.
		},
		func(c *Ctx) {
			c.Tick(tpPollCost)
			c.ParkOn(11, tpPeriod, tpPollCost, 0)
			t.Error("thread parked on key 11 woken by WakeKey(10)")
		},
		func(c *Ctx) {
			c.Tick(100)
			c.WakeKey(10)
		},
	})
	// Thread 1 stays parked forever once the others finish.
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock for the unwoken key", err)
	}
}

// TestWakeKeyWide: with parked ids spread over every word of the
// engine's parked set, WakeKey wakes exactly the threads parked on its
// key, and they resume in ascending id order.
func TestWakeKeyWide(t *testing.T) {
	const n = MaxHWThreads
	eng := parkEngine(t, n)
	var woken []int
	bodies := make([]func(*Ctx), n)
	for i := 0; i < n-1; i++ {
		key := uint64(i % 3)
		bodies[i] = func(c *Ctx) {
			c.Tick(tpPollCost)
			c.ParkOn(key, tpPeriod, tpPollCost, 0)
			woken = append(woken, c.ID())
		}
	}
	bodies[n-1] = func(c *Ctx) {
		c.Tick(100)
		c.WakeKey(1)
	}
	// The threads parked on keys 0 and 2 stay parked forever.
	if _, err := eng.Run(bodies); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock for the unwoken keys", err)
	}
	var want []int
	for i := 1; i < n-1; i += 3 {
		want = append(want, i)
	}
	if !slices.Equal(woken, want) {
		t.Fatalf("woken = %v, want %v", woken, want)
	}
}

// TestParkedRunsAreDeterministic: repeated runs with parked waiters must
// produce identical makespans (engine reuse resets all park state).
func TestParkedRunsAreDeterministic(t *testing.T) {
	eng := parkEngine(t, 4)
	run := func() uint64 {
		flag := false
		ms, err := eng.Run([]func(*Ctx){
			func(c *Ctx) { parkUntil(c, 1, func() bool { return flag }) },
			func(c *Ctx) { parkUntil(c, 1, func() bool { return flag }) },
			func(c *Ctx) { parkUntil(c, 1, func() bool { return flag }) },
			func(c *Ctx) {
				c.Tick(997)
				flag = true
				c.WakeKey(1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d makespan %d, want %d", i+1, got, first)
		}
	}
}
