package machine

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"

	"seer/internal/topology"
)

// TestEventQueueTieBreak: events with equal wakeup cycles must pop in
// thread-id order — the rule that makes the schedule total and the
// simulation deterministic.
func TestEventQueueTieBreak(t *testing.T) {
	insertions := [][]int32{
		{3, 0, 2, 1},
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{1, 3, 0, 2},
	}
	for _, ids := range insertions {
		var q eventQueue
		for _, id := range ids {
			q.push(event{cycle: 7, id: id})
		}
		for want := int32(0); want < 4; want++ {
			if got := q.pop(); got.id != want || got.cycle != 7 {
				t.Fatalf("insertion order %v: pop = %+v, want id %d", ids, got, want)
			}
		}
	}
}

// TestEventQueueInterleavedTies mixes cycles and ids: pops must come out
// in (cycle, id) lexicographic order even when pushes interleave with
// pops.
func TestEventQueueInterleavedTies(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 10, id: 2})
	q.push(event{cycle: 10, id: 1})
	q.push(event{cycle: 5, id: 3})
	if got := q.pop(); got != (event{cycle: 5, id: 3}) {
		t.Fatalf("pop = %+v, want {5 3}", got)
	}
	q.push(event{cycle: 5, id: 0}) // earlier than both queued events
	q.push(event{cycle: 10, id: 3})
	want := []event{{5, 0}, {10, 1}, {10, 2}, {10, 3}}
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop = %+v, want %+v", got, w)
		}
	}
	if !q.empty() {
		t.Fatalf("queue not empty after draining: %+v", q)
	}
}

// TestEventQueueReplaceMin: the combined swap must return the old minimum
// and leave the queue ordered, including when the incoming event ties an
// existing one.
func TestEventQueueReplaceMin(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 4, id: 2})
	q.push(event{cycle: 9, id: 1})
	if got := q.replaceMin(event{cycle: 9, id: 0}); got != (event{cycle: 4, id: 2}) {
		t.Fatalf("replaceMin = %+v, want {4 2}", got)
	}
	want := []event{{9, 0}, {9, 1}}
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop = %+v, want %+v", got, w)
		}
	}
}

// TestEventQueueQuickSorted: for random per-thread cycle assignments (one
// event per thread, as the engine guarantees), popping yields the
// (cycle, id)-sorted order.
func TestEventQueueQuickSorted(t *testing.T) {
	f := func(cycles []uint16) bool {
		n := len(cycles)
		if n > MaxHWThreads {
			n = MaxHWThreads
		}
		var q eventQueue
		evs := make([]event, n)
		for i := 0; i < n; i++ {
			evs[i] = event{cycle: uint64(cycles[i]), id: int32(i)}
			q.push(evs[i])
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].before(evs[j]) })
		for _, want := range evs {
			if got := q.pop(); got != want {
				return false
			}
		}
		return q.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventQueueDecreaseKey: pulling a queued event forward must reorder
// it ahead of events it now precedes.
func TestEventQueueDecreaseKey(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 50, id: 0})
	q.push(event{cycle: 20, id: 1})
	q.decreaseKey(0, 10)
	if got := q.pop(); got != (event{cycle: 10, id: 0}) {
		t.Fatalf("pop = %+v, want {10 0}", got)
	}
	if got := q.pop(); got != (event{cycle: 20, id: 1}) {
		t.Fatalf("pop = %+v, want {20 1}", got)
	}
}

// TestEventQueueWide: the multi-word occupancy mask must preserve
// (cycle, id) order for thread ids past the old single-word ceiling —
// 65 ids straddle the first word boundary, 128 and 256 exercise every
// word of the mask, and equal-cycle pushes pin the cross-word id
// tie-break.
func TestEventQueueWide(t *testing.T) {
	for _, n := range []int{65, 128, MaxHWThreads} {
		// Equal cycles: ids must drain in ascending order across words.
		var q eventQueue
		for id := n - 1; id >= 0; id-- {
			q.push(event{cycle: 7, id: int32(id)})
		}
		for want := int32(0); want < int32(n); want++ {
			if got := q.pop(); got != (event{cycle: 7, id: want}) {
				t.Fatalf("n=%d: pop = %+v, want {7 %d}", n, got, want)
			}
		}
		if !q.empty() {
			t.Fatalf("n=%d: queue not empty after draining", n)
		}

		// Distinct cycles arranged so the minimum hops between words:
		// id i sleeps until cycle n-i, so the highest id pops first.
		q.clear()
		for id := 0; id < n; id++ {
			q.push(event{cycle: uint64(n - id), id: int32(id)})
		}
		for want := int32(n - 1); want >= 0; want-- {
			if got := q.pop(); got.id != want {
				t.Fatalf("n=%d: pop id = %d, want %d", n, got.id, want)
			}
		}
	}
}

// TestEventQueueWideQuick: the random one-event-per-thread property at
// full mask width, forcing id assignments beyond 64 so every word of
// the occupancy bitset participates in the rescan.
func TestEventQueueWideQuick(t *testing.T) {
	f := func(cycles [MaxHWThreads]uint16) bool {
		var q eventQueue
		evs := make([]event, len(cycles))
		for i, c := range cycles {
			evs[i] = event{cycle: uint64(c), id: int32(i)}
			q.push(evs[i])
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].before(evs[j]) })
		for _, want := range evs {
			if got := q.pop(); got != want {
				return false
			}
		}
		return q.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants asserts every structural invariant of the calendar
// queue by brute force: q.min equals the (cycle, id) minimum recomputed
// over every queued id of both tiers, the count of queued ids equals q.n,
// every near-tier event lies in [base, base+wheelSize) in the bucket its
// cycle names, each bucket's count matches its bits, an occupancy bit is
// set exactly when its bucket is non-empty, no id sits in both tiers, and
// the far tier's cached minima match their spans. Tests call it after
// every mutation, so any structure that goes stale — even transiently —
// fails at the op that corrupted it.
func checkInvariants(t *testing.T, q *eventQueue) {
	t.Helper()
	var want event
	total := 0
	see := func(ev event) {
		if total == 0 || ev.before(want) {
			want = ev
		}
		total++
	}
	for b := 0; b < wheelSize; b++ {
		k := &q.wheel[b]
		pop := k.ids.Count()
		for w, m := range k.ids.W {
			for ; m != 0; m &= m - 1 {
				id := int32(w<<6 + bits.TrailingZeros64(m))
				c := q.cycles[id]
				if c%wheelSize != uint64(b) || c < q.base || c >= q.base+wheelSize {
					t.Fatalf("near id %d in bucket %d at cycle %d, window [%d, %d)", id, b, c, q.base, q.base+wheelSize)
				}
				if q.far.holds(id) {
					t.Fatalf("id %d queued in both tiers", id)
				}
				see(event{cycle: c, id: id})
			}
		}
		if int(k.n) != pop {
			t.Fatalf("bucket %d count = %d, holds %d ids", b, k.n, pop)
		}
		if occupied := q.occ[b>>6]&(1<<(b&63)) != 0; occupied != (pop != 0) {
			t.Fatalf("occupancy bit %d = %v, bucket holds %d ids", b, occupied, pop)
		}
	}
	f := &q.far
	farCount := 0
	var farWant event
	haveFar := false
	for w := uint32(0); w < queueWords; w++ {
		if occupied := f.active[w] != 0; occupied != (f.summary&(1<<w) != 0) {
			t.Fatalf("far summary bit %d = %v, occupancy = %v", w, !occupied, occupied)
		}
		if f.active[w] == 0 {
			continue
		}
		var wantWord event
		haveWord := false
		for g := w << groupBits; g < (w+1)<<groupBits; g++ {
			if f.active[w]&groupMask(g) == 0 {
				continue
			}
			var wantGroup event
			haveGroup := false
			for id := int32(g << groupBits); id < int32((g+1)<<groupBits); id++ {
				if !f.holds(id) {
					continue
				}
				ev := event{cycle: q.cycles[id], id: id}
				see(ev)
				farCount++
				if !haveGroup || ev.before(wantGroup) {
					wantGroup, haveGroup = ev, true
				}
			}
			if f.groupMin[g] != wantGroup {
				t.Fatalf("far groupMin[%d] = %+v, want %+v", g, f.groupMin[g], wantGroup)
			}
			if !haveWord || wantGroup.before(wantWord) {
				wantWord, haveWord = wantGroup, true
			}
		}
		if f.wordMin[w] != wantWord {
			t.Fatalf("far wordMin[%d] = %+v, want %+v", w, f.wordMin[w], wantWord)
		}
		if !haveFar || wantWord.before(farWant) {
			farWant, haveFar = wantWord, true
		}
	}
	if f.n != farCount {
		t.Fatalf("far n = %d, far occupancy popcount = %d", f.n, farCount)
	}
	if f.n != 0 && f.min != farWant {
		t.Fatalf("far min = %+v, want %+v", f.min, farWant)
	}
	if q.n != total {
		t.Fatalf("n = %d, queued ids = %d", q.n, total)
	}
	if q.n != 0 && q.min != want {
		t.Fatalf("min = %+v, want %+v", q.min, want)
	}
}

// TestEventQueueInvariants checks the full invariant set after every
// single mutation of a randomized op mix, at widths chosen to sit on
// both sides of the word and mask boundaries (63/64/65 around the first
// word, 255/256 at the mask edge). One reinsert in eight lands past the
// near window and one push in eight below base, so events move through
// both tiers and the far tier's heads race the wheel's.
func TestEventQueueInvariants(t *testing.T) {
	for _, n := range []int{63, 64, 65, 128, 255, MaxHWThreads} {
		var q eventQueue
		rng := uint64(0x2545f4914f6cdd1d) ^ uint64(n)
		next := func(mod uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % mod
		}
		delta := func() uint64 {
			if next(8) == 0 {
				return wheelSize - 8 + next(200)
			}
			return 1 + next(50)
		}
		for id := 0; id < n; id++ {
			q.push(event{cycle: next(97), id: int32(id)})
			checkInvariants(t, &q)
		}
		for step := 0; step < 3*n; step++ {
			switch next(3) {
			case 0:
				got := q.pop()
				checkInvariants(t, &q)
				c := got.cycle + delta()
				if next(8) == 0 {
					c = q.base - next(q.base+1) // below base: far tier
				}
				q.push(event{cycle: c, id: got.id})
			case 1:
				q.replaceMin(event{cycle: q.min.cycle + delta(), id: q.min.id})
			case 2:
				id := int32(next(uint64(n)))
				floor := q.min.cycle
				if cur := q.cycles[id]; cur > floor {
					q.decreaseKey(id, floor+next(cur-floor))
				}
			}
			checkInvariants(t, &q)
		}
		for !q.empty() {
			q.pop()
			checkInvariants(t, &q)
		}
	}
}

// TestEventQueueTiers pins the calendar queue's tier boundaries one case
// at a time, checking the invariants after every mutation.
func TestEventQueueTiers(t *testing.T) {
	// advance pops the single queued event at cycle c, moving base to c.
	advance := func(t *testing.T, q *eventQueue, c uint64) {
		t.Helper()
		q.push(event{cycle: c, id: 0})
		if got := q.pop(); got != (event{cycle: c, id: 0}) {
			t.Fatalf("pop = %+v, want {%d 0}", got, c)
		}
		if q.base != c {
			t.Fatalf("base = %d after taking cycle %d", q.base, c)
		}
		checkInvariants(t, q)
	}
	drain := func(t *testing.T, q *eventQueue, want ...event) {
		t.Helper()
		for _, w := range want {
			if got := q.pop(); got != w {
				t.Fatalf("pop = %+v, want %+v", got, w)
			}
			checkInvariants(t, q)
		}
		if !q.empty() {
			t.Fatalf("queue not empty after draining %d events", len(want))
		}
	}

	t.Run("window edge", func(t *testing.T) {
		var q eventQueue
		advance(t, &q, 1000)
		q.push(event{cycle: 1000 + wheelSize, id: 1})
		q.push(event{cycle: 1000 + wheelSize - 1, id: 2})
		checkInvariants(t, &q)
		if !q.far.holds(1) || q.far.holds(2) {
			t.Fatalf("base+%d must be far and base+%d near", wheelSize, wheelSize-1)
		}
		drain(t, &q, event{1000 + wheelSize - 1, 2}, event{1000 + wheelSize, 1})
	})

	t.Run("far event falls due", func(t *testing.T) {
		const w = wheelSize
		var q eventQueue
		q.push(event{cycle: w + 72, id: 3}) // far from base 0
		q.push(event{cycle: w + 22, id: 1}) // far
		q.push(event{cycle: 10, id: 2})     // near
		checkInvariants(t, &q)
		// Taking cycle 10 pulls base forward; w+22 now sits inside the
		// window and w+72 past it, but both stay in the far tier.
		if got := q.replaceMin(event{cycle: w + 42, id: 2}); got != (event{10, 2}) {
			t.Fatalf("replaceMin = %+v, want {10 2}", got)
		}
		checkInvariants(t, &q)
		if !q.far.holds(1) || q.min != (event{w + 22, 1}) {
			t.Fatalf("min = %+v, want the far event {%d 1}", q.min, w+22)
		}
		drain(t, &q, event{w + 22, 1}, event{w + 42, 2}, event{w + 72, 3})
	})

	t.Run("tie with lower id far", func(t *testing.T) {
		const c = wheelSize + 36
		var q eventQueue
		q.push(event{cycle: c, id: 4}) // far from base 0
		advance(t, &q, 60)
		q.push(event{cycle: c, id: 9}) // near from base 60
		checkInvariants(t, &q)
		if !q.far.holds(4) || q.far.holds(9) {
			t.Fatal("want id 4 far and id 9 near")
		}
		if q.min != (event{c, 4}) {
			t.Fatalf("min = %+v, want {%d 4}", q.min, c)
		}
		drain(t, &q, event{c, 4}, event{c, 9})
	})

	t.Run("decreaseKey far to near", func(t *testing.T) {
		var q eventQueue
		q.push(event{cycle: 4 * wheelSize, id: 7})
		q.push(event{cycle: 30, id: 8})
		q.decreaseKey(7, 20)
		checkInvariants(t, &q)
		if q.far.holds(7) {
			t.Fatal("decreaseKey into the window must move the event near")
		}
		drain(t, &q, event{20, 7}, event{30, 8})
	})

	t.Run("push below base", func(t *testing.T) {
		const base = 3 * wheelSize
		var q eventQueue
		advance(t, &q, base)
		q.push(event{cycle: base + 20, id: 2})
		q.push(event{cycle: 100, id: 5})
		q.push(event{cycle: 100, id: 1})
		checkInvariants(t, &q)
		if !q.far.holds(5) || !q.far.holds(1) {
			t.Fatal("events below base must go to the far tier")
		}
		drain(t, &q, event{100, 1}, event{100, 5}, event{base + 20, 2})
		if q.base != base+20 {
			t.Fatalf("base = %d, want %d: popping below base must not move it back", q.base, base+20)
		}
	})

	t.Run("width 256", func(t *testing.T) {
		var q eventQueue
		advance(t, &q, 64)
		// Every id of the mask, spread over near, far and below-base
		// cycles with many same-cycle ties across bitset words.
		var want []event
		for id := int32(0); id < MaxHWThreads; id++ {
			c := 64 + uint64(id%3)*(wheelSize*3/4) // near, near, far
			if id%16 == 5 {
				c = 40 // below base
			}
			q.push(event{cycle: c, id: MaxHWThreads - 1 - id})
			want = append(want, event{cycle: c, id: MaxHWThreads - 1 - id})
			checkInvariants(t, &q)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		drain(t, &q, want...)
	})
}

// TestEventQueueWideInterleaved drives a randomized mix of pop,
// replaceMin and decreaseKey against a reference model over widths
// straddling the group, word and mask boundaries — the park/wake
// interleavings the engine generates, at widths where the minimum
// migrates between bitset words. The model is the brute-force linear
// scan of a per-id cycle map.
func TestEventQueueWideInterleaved(t *testing.T) {
	for _, n := range []int{63, 64, 65, 128, 255, MaxHWThreads} {
		var q eventQueue
		model := make(map[int32]uint64, n)
		rng := uint64(0x9e3779b97f4a7c15) ^ uint64(n)
		next := func(mod uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % mod
		}
		modelMin := func() event {
			best := event{cycle: ^uint64(0), id: int32(MaxHWThreads)}
			for id, c := range model {
				if ev := (event{cycle: c, id: id}); ev.before(best) {
					best = ev
				}
			}
			return best
		}
		for id := 0; id < n; id++ {
			c := next(64)
			q.push(event{cycle: c, id: int32(id)})
			model[int32(id)] = c
		}
		clock := uint64(0)
		for step := 0; step < 4*n; step++ {
			switch next(3) {
			case 0: // pop, then re-push at a later cycle (a thread yielding)
				want := modelMin()
				got := q.pop()
				if got != want {
					t.Fatalf("n=%d step %d: pop = %+v, want %+v", n, step, got, want)
				}
				clock = got.cycle
				delete(model, got.id)
				ev := event{cycle: clock + 1 + next(40), id: got.id}
				q.push(ev)
				model[ev.id] = ev.cycle
			case 1: // replaceMin: the resumed thread's next wakeup swaps in
				want := modelMin()
				ev := event{cycle: want.cycle + 1 + next(40), id: want.id}
				got := q.replaceMin(ev)
				if got != want {
					t.Fatalf("n=%d step %d: replaceMin = %+v, want %+v", n, step, got, want)
				}
				model[ev.id] = ev.cycle
			case 2: // decreaseKey: a wake pulls a parked deadline forward
				id := int32(next(uint64(n)))
				cur := model[id]
				floor := modelMin().cycle
				if cur <= floor {
					continue
				}
				c := floor + next(cur-floor)
				q.decreaseKey(id, c)
				model[id] = c
			}
		}
		for len(model) > 0 {
			want := modelMin()
			if got := q.pop(); got != want {
				t.Fatalf("n=%d drain: pop = %+v, want %+v", n, got, want)
			}
			delete(model, want.id)
		}
		if !q.empty() {
			t.Fatalf("n=%d: queue not empty after drain", n)
		}
	}
}

// TestEventQueueOpsAllocFree: queue mutations are on the engine's
// per-event hot path and must not allocate, including at full 256-id
// width where the rescan walks all four mask words.
func TestEventQueueOpsAllocFree(t *testing.T) {
	var q eventQueue
	for id := 0; id < MaxHWThreads; id++ {
		q.push(event{cycle: uint64(id % 17), id: int32(id)})
	}
	if avg := testing.AllocsPerRun(200, func() {
		got := q.pop()
		q.push(event{cycle: got.cycle + 13, id: got.id})
		got = q.replaceMin(event{cycle: q.min.cycle + 29, id: q.min.id})
		q.decreaseKey(got.id, got.cycle)
	}); avg != 0 {
		t.Fatalf("queue ops allocate %.1f allocs/op, want 0", avg)
	}
}

// TestEngineEqualClockSchedulesLowestID: two threads ticking identical
// costs must strictly alternate starting with thread 0 — the engine-level
// consequence of the queue's tie-breaking rule.
func TestEngineEqualClockSchedulesLowestID(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(3, 3), Seed: 1, Cost: DefaultCostModel()})
	var order []int
	body := func(id int) func(*Ctx) {
		return func(c *Ctx) {
			for n := 0; n < 4; n++ {
				order = append(order, id)
				c.Tick(10)
			}
		}
	}
	if _, err := e.Run([]func(*Ctx){body(0), body(1), body(2)}); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, order[i], want[i], order)
		}
	}
}

// FuzzEventQueue decodes random op sequences — push, pop, replaceMin and
// decreaseKey at near, far and below-base cycles — and checks every
// popped event, every cached minimum and the full invariant set against
// a brute-force per-id map. The first byte picks the width (1..256);
// each op then takes three bytes: kind and cycle class, id, distance.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{7, 0, 1, 3, 0, 2, 70, 1, 0, 0, 2, 0, 9, 3, 1, 5})
	f.Add([]byte{255, 0, 200, 10, 4, 3, 100, 8, 9, 1, 1, 0, 0, 6, 0, 2, 3, 40, 20, 0, 0, 0})
	f.Add([]byte{63, 0, 62, 63, 4, 63, 64, 8, 1, 200, 2, 0, 0, 3, 0, 0, 1, 0, 0})
	f.Add([]byte{128, 0, 5, 0, 0, 6, 0, 4, 7, 100, 1, 0, 0, 9, 6, 30, 2, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) + 1
		data = data[1:]
		var q eventQueue
		model := make(map[int32]uint64, n)
		modelMin := func() event {
			best := event{cycle: ^uint64(0), id: MaxHWThreads}
			for id, c := range model {
				if ev := (event{cycle: c, id: id}); ev.before(best) {
					best = ev
				}
			}
			return best
		}
		// cycleFor places an event relative to floor by the op's class:
		// near (inside the window), far (past it) or below base.
		cycleFor := func(class byte, floor uint64, d byte) uint64 {
			switch class {
			case 0:
				return floor + uint64(d)%wheelSize
			case 1:
				return floor + wheelSize + uint64(d)
			default:
				return q.base - min(q.base, uint64(d))
			}
		}
		for ; len(data) >= 3; data = data[3:] {
			op, arg, d := data[0], data[1], data[2]
			switch op % 4 {
			case 0: // push the first unqueued id at or after arg
				id := int32(int(arg) % n)
				for k := 0; k < n; k++ {
					if _, ok := model[id]; !ok {
						break
					}
					id = (id + 1) % int32(n)
				}
				if _, ok := model[id]; ok {
					continue // every id is queued
				}
				c := cycleFor(op/4%3, q.base, d)
				q.push(event{cycle: c, id: id})
				model[id] = c
			case 1:
				if len(model) == 0 {
					continue
				}
				want := modelMin()
				if got := q.pop(); got != want {
					t.Fatalf("pop = %+v, want %+v", got, want)
				}
				delete(model, want.id)
			case 2: // replaceMin must not precede the minimum
				if len(model) == 0 {
					continue
				}
				want := modelMin()
				c := cycleFor(op/4%2, want.cycle, d)
				if got := q.replaceMin(event{cycle: c, id: want.id}); got != want {
					t.Fatalf("replaceMin = %+v, want %+v", got, want)
				}
				model[want.id] = c
			case 3: // decreaseKey on a queued id, by up to d cycles
				id := int32(int(arg) % n)
				cur, ok := model[id]
				if !ok {
					continue
				}
				c := cur - min(cur, uint64(d))
				q.decreaseKey(id, c)
				model[id] = c
			}
			checkInvariants(t, &q)
			if len(model) != 0 && q.min != modelMin() {
				t.Fatalf("min = %+v, want %+v", q.min, modelMin())
			}
		}
		for len(model) > 0 {
			want := modelMin()
			if got := q.pop(); got != want {
				t.Fatalf("drain: pop = %+v, want %+v", got, want)
			}
			delete(model, want.id)
		}
		if !q.empty() {
			t.Fatal("queue not empty after drain")
		}
	})
}

// BenchmarkEventQueue times the scheduler's common yield — replaceMin of
// the minimum with its thread's next wakeup — at 8, 128 and 256 queued
// ids. "near" reinserts every event within 64 cycles of the minimum,
// where the engine puts nearly all of its inserts; "far10" sends one
// insert in ten 256–511 cycles out, past the near window.
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{8, 128, MaxHWThreads} {
		for _, farShare := range []int{0, 10} {
			name := fmt.Sprintf("%d/near", n)
			if farShare != 0 {
				name = fmt.Sprintf("%d/far%d", n, farShare)
			}
			b.Run(name, func(b *testing.B) {
				var deltas [1024]uint64
				rng := uint64(0x9e3779b97f4a7c15)
				for i := range deltas {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					deltas[i] = 1 + rng%63
					if int(rng>>32%100) < farShare {
						deltas[i] = 256 + rng>>40%256
					}
				}
				var q eventQueue
				for id := 0; id < n; id++ {
					q.push(event{cycle: uint64(id) % 64, id: int32(id)})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := q.min
					q.replaceMin(event{cycle: m.cycle + deltas[i%len(deltas)], id: m.id})
				}
			})
		}
	}
}
