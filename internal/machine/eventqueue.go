package machine

import (
	"math/bits"

	"seer/internal/topology"
)

// event is one pending wakeup in the engine's schedule: thread id resumes
// when the global virtual time reaches cycle.
type event struct {
	cycle uint64
	id    int32
}

// before orders events by (cycle, id): earlier virtual time first, ties
// broken by the lower thread id. The id tie-break is what makes the
// schedule total and therefore the whole simulation deterministic — it
// mirrors the seed engine's linear scan, which resolved equal clocks in
// favor of the lowest index.
func (a event) before(b event) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.id < b.id)
}

// queueWords is the width of a thread-id bitset: one bit per hardware
// thread id up to MaxHWThreads.
const queueWords = MaxHWThreads / 64

// wheelSize is the number of one-cycle buckets in the near tier: the
// window [base, base+wheelSize) it covers. It is a multiple of 64, with
// one occupancy word per 64 buckets. 128 covers the 120-cycle abort
// handling tick; with 64, 7–12% of engine inserts went far.
const (
	wheelSize  = 128
	wheelWords = wheelSize / 64
)

// bucket is one near-tier cycle: the ids whose event falls on it, and
// how many there are.
type bucket struct {
	ids topology.Set
	n   int32
}

// eventQueue is the scheduler's pending-wakeup set, ordered by
// event.before. The engine queues at most one event per hardware thread
// (its next wakeup, or its park deadline), so per-thread cycles live in
// a flat array and the order is kept by a two-tier calendar queue (a
// hashed timing wheel, Varghese & Lauck 1987):
//
//   - The near tier is a ring of wheelSize one-cycle buckets covering
//     [base, base+wheelSize); cycle c lives in bucket c mod wheelSize.
//     Bit b of occ is set iff bucket b is non-empty, so the next occupied
//     cycle is a TrailingZeros64 over at most wheelWords+1 words, and the
//     lowest id on that cycle is the bucket's first set bit: the
//     (cycle, id) tie-break is structural, with no rescans.
//   - The far tier holds everything else: events at or past
//     base+wheelSize, and anything pushed below base. It is the
//     hierarchical bitmap below, with cached minima.
//
// base is the cycle of the last event taken, and never decreases. Every
// engine insert is at or after it — a resumed thread's clock is at least
// its popped cycle, wake boundaries are at least the waker's clock, park
// deadlines lie after the parking thread's clock — and the event taken
// is the global minimum, so advancing base to it leaves every near event
// inside the window. Far events are never migrated: one that the window
// has caught up with simply stays put, and min compares the two tier
// heads. In the engine about 97% of inserts land within wheelSize cycles
// of base, so nearly every operation is O(1) at any width.
type eventQueue struct {
	n      int                // number of queued events
	min    event              // cached minimum; valid only while n != 0
	base   uint64             // start of the near window; never decreases
	occ    [wheelWords]uint64 // bit b set iff wheel[b] is non-empty
	wheel  [wheelSize]bucket
	far    farTier
	cycles [MaxHWThreads]uint64
}

// empty reports whether no events are queued.
func (q *eventQueue) empty() bool { return q.n == 0 }

// clear discards all queued events and rewinds the window to cycle 0.
// Only occupied buckets hold bits, so only those are zeroed.
func (q *eventQueue) clear() {
	for w, o := range q.occ {
		for ; o != 0; o &= o - 1 {
			q.wheel[w<<6+bits.TrailingZeros64(o)] = bucket{}
		}
	}
	q.n, q.base, q.occ = 0, 0, [wheelWords]uint64{}
	q.far.clear()
}

// insert files thread ev.id's wakeup in the tier its cycle belongs to,
// without touching the cached minimum or the event count.
func (q *eventQueue) insert(ev event) {
	q.cycles[ev.id] = ev.cycle
	if ev.cycle-q.base >= wheelSize { // also catches cycle < base
		q.far.insert(ev)
		return
	}
	b := ev.cycle % wheelSize
	k := &q.wheel[b]
	k.ids.Add(int(ev.id))
	k.n++
	q.occ[b>>6] |= 1 << (b & 63)
}

// remove deletes thread id's event from its tier, without touching the
// cached minimum or the event count.
func (q *eventQueue) remove(id int32) {
	if q.far.holds(id) {
		q.far.remove(id, &q.cycles)
		return
	}
	b := q.cycles[id] % wheelSize
	k := &q.wheel[b]
	k.ids.Remove(int(id))
	if k.n--; k.n == 0 {
		q.occ[b>>6] &^= 1 << (b & 63)
	}
}

// queued reports whether thread id has an event in the queue.
func (q *eventQueue) queued(id int32) bool {
	return q.far.holds(id) || q.wheel[q.cycles[id]%wheelSize].ids.Has(int(id))
}

// take removes the minimum event and advances the window to it.
func (q *eventQueue) take() event {
	top := q.min
	q.remove(top.id)
	if top.cycle > q.base {
		q.base = top.cycle
	}
	return top
}

// refresh recomputes the cached minimum from the two tier heads. Must
// not be called on an empty queue.
func (q *eventQueue) refresh() {
	c, ok := q.nearHead()
	if !ok {
		q.min = q.far.min
		return
	}
	ids := &q.wheel[c%wheelSize].ids.W
	w := 0
	for ids[w] == 0 {
		w++
	}
	m := event{cycle: c, id: int32(w<<6 + bits.TrailingZeros64(ids[w]))}
	if q.far.n != 0 && q.far.min.before(m) {
		m = q.far.min
	}
	q.min = m
}

// nearHead returns the first occupied cycle of the near window, walking
// the occupancy words from base's bucket around the ring. ok is false
// when the near tier is empty.
func (q *eventQueue) nearHead() (c uint64, ok bool) {
	i := q.base % wheelSize
	w := i >> 6
	if m := q.occ[w] >> (i & 63); m != 0 {
		return q.base + uint64(bits.TrailingZeros64(m)), true
	}
	// d is the distance from base to the start of the next word; the last
	// step wraps to base's own word, whose bits below base's are the top
	// of the window.
	d := 64 - i&63
	for k := uint64(1); k <= wheelWords; k++ {
		if m := q.occ[(w+k)%wheelWords]; m != 0 {
			return q.base + d + uint64(bits.TrailingZeros64(m)), true
		}
		d += 64
	}
	return 0, false
}

// push inserts thread ev.id's wakeup. The thread must not already have an
// event queued (the engine pops a thread's event before the thread can
// push a new one).
func (q *eventQueue) push(ev event) {
	q.insert(ev)
	if q.n == 0 || ev.before(q.min) {
		q.min = ev
	}
	q.n++
}

// pop removes and returns the minimum event. It must not be called on an
// empty queue.
func (q *eventQueue) pop() event {
	top := q.take()
	if q.n--; q.n != 0 {
		q.refresh()
	}
	return top
}

// replaceMin swaps ev in for the minimum event and returns that minimum.
// The scheduler loop uses it for the common yield: the resumed thread's
// new wakeup goes in as the old minimum comes out. It must not be called
// on an empty queue, and ev must not precede the current minimum (the
// loop handles that case without touching the queue at all).
func (q *eventQueue) replaceMin(ev event) event {
	top := q.take()
	q.insert(ev)
	q.refresh()
	return top
}

// decreaseKey moves thread id's pending event to the earlier cycle. The
// engine's wake path uses it to pull a bounded waiter's deadline event
// forward to the poll boundary computed from a lock release; the new
// cycle must not exceed the event's current one. It panics if no event
// with the given id is queued, which would be an engine bug.
func (q *eventQueue) decreaseKey(id int32, cycle uint64) {
	if !q.queued(id) {
		panic("machine: decreaseKey on a thread with no queued event")
	}
	q.remove(id)
	ev := event{cycle: cycle, id: id}
	q.insert(ev)
	if ev.before(q.min) {
		q.min = ev
	}
}

// groupBits is the log2 of the id-group granularity of the far tier's
// lowest cache level: ids are grouped in runs of 8, one occupancy byte
// per group.
const groupBits = 3

// farTier is the overflow set of the calendar queue: the events outside
// the near window. It is a hierarchical occupancy bitmap with cached
// minima at every level, so removing its minimum rescans at most the 8
// ids of one group and the 8 group minima of one word:
//
//   - active[w] has one bit per thread id in [64w, 64w+64); summary has
//     bit w set iff active[w] != 0.
//   - groupMin[g] caches the minimum event among ids [8g, 8g+8), valid
//     while the group's occupancy byte in its active word is nonzero.
//   - wordMin[w] caches the minimum over word w's groups, valid while
//     the summary bit is set; min caches the tier minimum.
//
// Every level visits candidates in ascending id order with a strict
// cycle comparison, so each cached minimum carries the lowest id for its
// cycle — exactly event.before's total order.
type farTier struct {
	n       int                // number of far events
	min     event              // cached minimum; valid only while n != 0
	summary uint64             // bit w set iff active[w] != 0
	active  [queueWords]uint64 // bitmask of thread ids with a far event
	wordMin [queueWords]event  // per-word cached minimum; valid while the summary bit is set
	// groupMin caches per-8-id-group minima; entry g is valid while byte
	// g&7 of active[g>>3] is nonzero.
	groupMin [queueWords << groupBits]event
}

func (f *farTier) clear() {
	f.n = 0
	f.summary = 0
	f.active = [queueWords]uint64{}
}

// holds reports whether thread id's event is in the far tier.
func (f *farTier) holds(id int32) bool {
	return f.active[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// groupMask returns the occupancy byte of group g within its active
// word, positioned in place.
func groupMask(g uint32) uint64 {
	return 0xFF << ((g & 7) << 3)
}

func (f *farTier) insert(ev event) {
	w := uint32(ev.id) >> 6
	g := uint32(ev.id) >> groupBits
	if f.active[w]&groupMask(g) == 0 || ev.before(f.groupMin[g]) {
		f.groupMin[g] = ev
	}
	if f.summary&(1<<w) == 0 {
		f.summary |= 1 << w
		f.wordMin[w] = ev
	} else if ev.before(f.wordMin[w]) {
		f.wordMin[w] = ev
	}
	f.active[w] |= 1 << (uint32(ev.id) & 63)
	if f.n == 0 || ev.before(f.min) {
		f.min = ev
	}
	f.n++
}

// remove deletes thread id's event, rebuilding a cache only when the
// removed id was its cached minimum. cycles holds every queued id's
// cycle.
func (f *farTier) remove(id int32, cycles *[MaxHWThreads]uint64) {
	w := uint32(id) >> 6
	f.active[w] &^= 1 << (uint32(id) & 63)
	f.n--
	if f.active[w] == 0 {
		f.summary &^= 1 << w
	} else {
		g := uint32(id) >> groupBits
		if f.active[w]&groupMask(g) != 0 && f.groupMin[g].id == id {
			f.rescanGroup(g, cycles)
		}
		if f.wordMin[w].id == id {
			f.rescanWord(w)
		}
	}
	if f.n != 0 && f.min.id == id {
		f.combine()
	}
}

// rescanGroup recomputes groupMin[g] from the group's live ids. The
// group must be occupied.
func (f *farTier) rescanGroup(g uint32, cycles *[MaxHWThreads]uint64) {
	m := (f.active[g>>3] >> ((g & 7) << 3)) & 0xFF
	base := int32(g << groupBits)
	id := base + int32(bits.TrailingZeros64(m))
	best := event{cycle: cycles[id], id: id}
	for m &= m - 1; m != 0; m &= m - 1 {
		id = base + int32(bits.TrailingZeros64(m))
		if c := cycles[id]; c < best.cycle {
			best = event{cycle: c, id: id}
		}
	}
	f.groupMin[g] = best
}

// rescanWord recomputes wordMin[w] from the word's occupied group
// minima. The word must be occupied, and its group caches valid.
func (f *farTier) rescanWord(w uint32) {
	m := f.active[w]
	gbase := w << groupBits
	k := uint32(bits.TrailingZeros64(m)) >> 3
	best := f.groupMin[gbase+k]
	for m &^= 0xFF << (k << 3); m != 0; m &^= 0xFF << (k << 3) {
		k = uint32(bits.TrailingZeros64(m)) >> 3
		if gm := f.groupMin[gbase+k]; gm.cycle < best.cycle {
			best = gm
		}
	}
	f.wordMin[w] = best
}

// combine recomputes the tier minimum from the occupied words' minima.
// The tier must not be empty.
func (f *farTier) combine() {
	s := f.summary
	w := uint32(bits.TrailingZeros64(s))
	best := f.wordMin[w]
	for s &= s - 1; s != 0; s &= s - 1 {
		w = uint32(bits.TrailingZeros64(s))
		if wm := f.wordMin[w]; wm.cycle < best.cycle {
			best = wm
		}
	}
	f.min = best
}
