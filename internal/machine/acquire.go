package machine

// Engine-side lock acquisition (DESIGN.md §6j).
//
// At wide shapes the dominant residual coroutine traffic is the
// test-and-test-and-set acquire protocol: a poll tick plus load, then a
// CAS tick plus load-and-store, each tick usually crossing the batch
// horizon because event density leaves no conflict-free window. Per tick
// that is two yield/resume round trips per uncontended acquire — and the
// thread learns nothing at either resume that the engine does not already
// know, because the protocol is a fixed state machine over one simulated
// word.
//
// AcquireWord therefore lets the event loop run the protocol on the
// thread's behalf. The coroutine executes the loop inline (with the exact
// per-tick hook and doom semantics) while its ticks stay below the batch
// horizon; the first tick at or past the horizon suspends it, and from
// then on every protocol step executes inside Engine.Run at the pop of
// the thread's own (cycle, id) event — the same schedule position, the
// same hook firings, the same DirectLoad/DirectStore side effects at the
// same cycles — without resuming the coroutine. A poll that observes the
// word busy parks the thread through the ordinary evaluated-park state
// (see ParkOnWord), so wake-time polls are engine-evaluated too. The
// coroutine resumes exactly once, after the winning store, and AcquireWord
// returns with the lock held.
//
// This is delegation, not speculation: nothing runs ahead of virtual
// time, so no undo log is needed and the observable streams are
// byte-identical to the per-tick engine by construction.

// acquireStep status codes.
const (
	acqDone   = iota // winning store executed; resume the coroutine
	acqQueued        // next protocol tick crossed the horizon; deliver nextCycle
	acqParked        // poll observed the word busy; thread parked on it
)

// SetLockWordOps installs the committed-memory operations the event loop
// uses to execute delegated acquires (Ctx.AcquireWord): load(hw, key)
// performs a non-transactional load of the word key names on behalf of
// hardware thread hw — including its strong-isolation doom side effects —
// and store the matching non-transactional store. The runtime installs
// mem.Memory.DirectLoad/DirectStore on the lock word. Install both before
// Run, together with SetParkPollEvaluator; without them AcquireWord
// reports false and callers fall back to their ticking loop.
func (e *Engine) SetLockWordOps(load func(hw int, key uint64) uint64, store func(hw int, key uint64, v uint64)) {
	e.lockLoad, e.lockStore = load, store
}

// AcquireWord acquires the spin-lock word key names via test-and-test-
// and-set, storing owner on success: the engine-side form of
//
//	for { Tick(pollCost); if load != 0 { park; continue }
//	      Tick(lockOp); if load == 0 { store(owner); return } }
//
// with pollCost/lockOp from the engine's cost model. It reports false —
// having done nothing — when the engine has no lock-word operations
// installed; the caller then runs its own ticking loop. Schedules and all
// observable streams are identical either way.
func (c *Ctx) AcquireWord(key, owner uint64) bool {
	e := c.eng
	if e.lockLoad == nil || e.pollEval == nil {
		return false
	}
	// A suspended delegation leaves the schedule like a park does: any
	// open speculative quantum must replay first.
	c.flushSpec()
	cost := &e.cfg.Cost
	for {
		nc := c.clock + cost.DirectLoad
		if nc >= c.batchLimit {
			c.suspendAcquire(key, owner, nc, false)
			return true
		}
		c.clock = nc
		if hook := e.tickHook; hook != nil {
			hook(nc)
		}
		if e.lockLoad(c.id, key) != 0 {
			// Busy: park on the word. The engine evaluates wake-time
			// polls and continues the protocol itself; this resume is the
			// return from a completed acquire.
			c.acq, c.acqCAS, c.acqKey, c.acqOwner = true, false, key, owner
			c.parkEval = true
			c.parkOn(key, cost.SpinQuantum+cost.DirectLoad, cost.DirectLoad, 0)
			return true
		}
		nc = c.clock + cost.LockOp
		if nc >= c.batchLimit {
			c.suspendAcquire(key, owner, nc, true)
			return true
		}
		c.clock = nc
		if hook := e.tickHook; hook != nil {
			hook(nc)
		}
		if e.lockLoad(c.id, key) == 0 {
			e.lockStore(c.id, key, owner)
			return true
		}
	}
}

// suspendAcquire hands the rest of the protocol to the event loop: the
// pending tick (the poll tick, or with cas the CAS tick) becomes the
// thread's queued event, exactly as the per-tick yield would have queued
// it, and the coroutine stays suspended until the acquire completes.
func (c *Ctx) suspendAcquire(key, owner, nc uint64, cas bool) {
	c.acq, c.acqCAS, c.acqKey, c.acqOwner = true, cas, key, owner
	c.clock = nc
	c.specOn = false
	if !c.yield(nc) {
		panic(errAbandonRun)
	}
	c.checkUnwind()
}

// acquireStep continues thread t's delegated acquire at its popped event:
// the tick at cycle now has already fired its hook (and passed the
// MaxCycles check), so the entry executes that tick's action — the poll
// load, or with t.acqCAS the CAS — and then runs further protocol steps
// inline while their ticks stay below the horizon, firing each tick's
// hook exactly as the coroutine's fast path would. It returns acqDone
// after the winning store (t.acq cleared, coroutine must resume),
// acqQueued with the next tick's cycle when a step crosses the horizon,
// or acqParked after a busy poll parked the thread on the word.
func (e *Engine) acquireStep(t *Ctx, now uint64) (nextCycle uint64, status int) {
	cost := &e.cfg.Cost
	t.clock = now
	cas := t.acqCAS
	for {
		if cas {
			if e.lockLoad(t.id, t.acqKey) == 0 {
				e.lockStore(t.id, t.acqKey, t.acqOwner)
				t.acq = false
				return 0, acqDone
			}
			// Lost the race to another acquirer: back to polling.
			cas = false
		} else {
			if e.lockLoad(t.id, t.acqKey) != 0 {
				t.acqCAS = false
				t.parkKey = t.acqKey
				t.parkPeriod = cost.SpinQuantum + cost.DirectLoad
				t.parkPollCost = cost.DirectLoad
				t.parkPolls = 0
				t.parkEval = true
				e.park(t)
				return 0, acqParked
			}
			cas = true
		}
		step := cost.DirectLoad
		if cas {
			step = cost.LockOp
		}
		nc := t.clock + step
		if nc >= e.horizonFor(int32(t.id)) {
			t.acqCAS = cas
			return nc, acqQueued
		}
		t.clock = nc
		if e.tickHook != nil {
			e.tickHook(nc)
		}
	}
}
