package main

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"seer"
	"seer/internal/core"
	"seer/internal/harness"
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
	"seer/internal/stats"
	"seer/internal/tmds"
	"seer/internal/topology"
)

// A probe times one public operation of one layer with
// testing.Benchmark; b.N counts that operation. Each probe yields
// <name> in host ns/op and <name>.allocs in allocations/op.
type probe struct {
	name string
	fn   func(b *testing.B)
}

var (
	shape8   = harness.ScalingShapes[0]
	shape128 = harness.ScalingShapes[len(harness.ScalingShapes)-1]
)

var probes = []probe{
	{"machine.tick_ns_8t", func(b *testing.B) { tickProbe(b, shape8) }},
	{"machine.tick_ns_128t", func(b *testing.B) { tickProbe(b, shape128) }},
	{"machine.park_wake_ns", parkWakeProbe},
	{"machine.acquire_ns_128t", func(b *testing.B) { lockProbe(b, shape128) }},
	{"mem.register_ns", registerProbe},
	{"mem.direct_ns", directProbe},
	{"htm.commit_ns", commitProbe},
	{"htm.conflict_ns", conflictProbe},
	{"htm.capacity_abort_ns", capacityProbe},
	{"htm.stm_commit_ns", stmProbe},
	{"spinlock.acquire_release_ns", func(b *testing.B) { lockProbe(b, topology.Flat(1)) }},
	{"core.update_scheme_ns", updateSchemeProbe},
	{"core.start_commit_ns_8t", func(b *testing.B) { startCommitProbe(b, shape8) }},
	{"core.start_commit_ns_128t", func(b *testing.B) { startCommitProbe(b, shape128) }},
	{"stats.merge_ns", mergeProbe},
	{"policy.atomic_ns_RTM", func(b *testing.B) { atomicProbe(b, seer.PolicyRTM) }},
	{"policy.atomic_ns_Seer", func(b *testing.B) { atomicProbe(b, seer.PolicySeer) }},
	{"policy.atomic_ns_PhTM", func(b *testing.B) { atomicProbe(b, seer.PolicyPhased) }},
	{"tmds.hashmap_get_ns", hashMapGetProbe},
	{"tmds.hashmap_put_ns", hashMapPutProbe},
	{"tmds.rbtree_get_ns", rbTreeGetProbe},
	{"tmds.rbtree_insert_ns", rbTreeInsertProbe},
	{"tmds.queue_ns", queueProbe},
}

// runProbes runs every probe for benchtime (a -test.benchtime value).
func runProbes(benchtime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	out := make(map[string]float64, 2*len(probes))
	for _, p := range probes {
		runtime.GC()
		r := testing.Benchmark(p.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("probe %s failed", p.name)
		}
		out[p.name] = float64(r.T.Nanoseconds()) / float64(r.N)
		out[p.name+".allocs"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out, nil
}

// newEngine builds an engine of the given shape with the lock-word
// operations and poll evaluator seer.NewSystem installs, so spin-lock
// acquires take the delegated path.
func newEngine(b *testing.B, topo topology.Topology, words int) (*machine.Engine, *mem.Memory) {
	cfg := machine.DefaultConfig()
	cfg.Topo = topo
	eng, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(words)
	eng.SetParkPollEvaluator(func(key uint64) bool { return m.Peek(mem.Addr(key)) != 0 })
	eng.SetLockWordOps(
		func(hw int, key uint64) uint64 { return m.DirectLoad(hw, mem.Addr(key)) },
		func(hw int, key uint64, v uint64) { m.DirectStore(hw, mem.Addr(key), v) })
	return eng, m
}

func runEngine(b *testing.B, eng *machine.Engine, bodies []func(*machine.Ctx)) {
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.Run(bodies); err != nil {
		b.Fatal(err)
	}
}

// perThread splits b.N operations over n threads.
func perThread(b *testing.B, n int) int { return (b.N + n - 1) / n }

// tickProbe: every thread of the shape ticks; one op is one Tick.
func tickProbe(b *testing.B, topo topology.Topology) {
	eng, _ := newEngine(b, topo, 1<<10)
	n := topo.Threads()
	per := perThread(b, n)
	bodies := make([]func(*machine.Ctx), n)
	for i := range bodies {
		bodies[i] = func(c *machine.Ctx) {
			for k := 0; k < per; k++ {
				c.Tick(1)
			}
		}
	}
	runEngine(b, eng, bodies)
}

// parkWakeProbe: one thread parks on a key, the other wakes it; one op
// is one park/wake round trip.
func parkWakeProbe(b *testing.B) {
	eng, _ := newEngine(b, topology.Flat(2), 1<<10)
	const key, period = 64, 10
	done := false
	runEngine(b, eng, []func(*machine.Ctx){
		func(c *machine.Ctx) {
			for k := 0; k < b.N; k++ {
				c.Tick(1)
				c.ParkOn(key, period, 1, 0)
			}
			done = true
		},
		func(c *machine.Ctx) {
			for !done {
				c.Tick(period)
				c.WakeKey(key)
			}
		},
	})
}

// lockProbe: every thread of the shape takes and releases one spin lock;
// one op is one acquire/release pair.
func lockProbe(b *testing.B, topo topology.Topology) {
	eng, m := newEngine(b, topo, 1<<12)
	lock := spinlock.New(m)
	n := topo.Threads()
	per := perThread(b, n)
	bodies := make([]func(*machine.Ctx), n)
	for i := range bodies {
		bodies[i] = func(c *machine.Ctx) {
			for k := 0; k < per; k++ {
				lock.Acquire(c, m)
				c.Tick(20)
				lock.Release(c, m)
			}
		}
	}
	runEngine(b, eng, bodies)
}

// registerProbe: one op registers a line for read and write and drops it.
func registerProbe(b *testing.B) {
	m := mem.New(1 << 12)
	a := m.AllocLines(1)
	lines := []mem.Line{mem.LineOf(a)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RegisterRead(1, a)
		m.RegisterWrite(1, a)
		m.Unregister(1, lines)
	}
}

// directProbe: one op is a non-transactional load and store.
func directProbe(b *testing.B) {
	m := mem.New(1 << 12)
	a := m.AllocLines(1)
	var elapsed uint64
	d := mem.NewDirect(m, 0, func(cost uint64) { elapsed += cost }, 2, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store(a, d.Load(a)+1)
	}
}

// htmUnit builds an HTM unit on a fresh engine of n flat threads.
func htmUnit(b *testing.B, n int, cfg htm.Config) (*machine.Engine, *mem.Memory, *htm.Unit) {
	eng, m := newEngine(b, topology.Flat(n), 1<<14)
	return eng, m, htm.New(m, eng.Config(), cfg)
}

// commitProbe: one op is a committed read-modify-write transaction.
func commitProbe(b *testing.B) {
	eng, m, u := htmUnit(b, 1, htm.DefaultConfig())
	a := m.AllocLines(1)
	body := func(tx *htm.Tx) { tx.Store(a, tx.Load(a)+1) }
	runEngine(b, eng, []func(*machine.Ctx){func(c *machine.Ctx) {
		for k := 0; k < b.N; k++ {
			u.Run(c, body)
		}
	}})
}

// conflictProbe: two threads update one line; one op is one committed
// transaction, retried through its conflict aborts.
func conflictProbe(b *testing.B) {
	eng, m, u := htmUnit(b, 2, htm.DefaultConfig())
	a := m.AllocLines(1)
	per := perThread(b, 2)
	body := func(tx *htm.Tx) {
		v := tx.Load(a)
		tx.Work(20)
		tx.Store(a, v+1)
	}
	worker := func(c *machine.Ctx) {
		for k := 0; k < per; k++ {
			for u.Run(c, body) != 0 {
			}
		}
	}
	runEngine(b, eng, []func(*machine.Ctx){worker, worker})
}

// capacityProbe: one op is a transaction that aborts on overflowing its
// write set.
func capacityProbe(b *testing.B) {
	cfg := htm.DefaultConfig()
	cfg.SpuriousProb = 0
	eng, m, u := htmUnit(b, 1, cfg)
	base := m.AllocLines(cfg.WriteSetLines + 1)
	body := func(tx *htm.Tx) {
		for l := 0; l <= cfg.WriteSetLines; l++ {
			tx.Store(base+mem.Addr(l*mem.LineWords), 1)
		}
	}
	runEngine(b, eng, []func(*machine.Ctx){func(c *machine.Ctx) {
		for k := 0; k < b.N; k++ {
			if !u.Run(c, body).Capacity() {
				b.Error("transaction did not overflow")
				return
			}
		}
	}})
}

// stmProbe: one op is a committed software transaction (Unit.RunSW).
func stmProbe(b *testing.B) {
	eng, m, u := htmUnit(b, 1, htm.DefaultConfig())
	a := m.AllocLines(1)
	body := func(tx *htm.Tx) { tx.Store(a, tx.Load(a)+1) }
	runEngine(b, eng, []func(*machine.Ctx){func(c *machine.Ctx) {
		for k := 0; k < b.N; k++ {
			u.RunSW(c, body)
		}
	}})
}

// newSeer builds a scheduler over numTx atomic blocks on the shape.
func newSeer(b *testing.B, topo topology.Topology, numTx int) (*machine.Engine, *core.Seer) {
	eng, m := newEngine(b, topo, 1<<16)
	u := htm.New(m, eng.Config(), htm.DefaultConfig())
	opts := core.DefaultOptions()
	opts.HillClimb = false
	rng := machine.NewRand(5)
	return eng, core.New(numTx, eng.Config(), m, u, opts, &rng)
}

// updateSchemeProbe: one op is one scheme recomputation over dense
// statistics of 16 atomic blocks.
func updateSchemeProbe(b *testing.B) {
	eng, s := newSeer(b, shape8, 16)
	runEngine(b, eng, []func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		fill := func() {
			for x := 0; x < s.NumTx(); x++ {
				for y := 0; y < s.NumTx(); y++ {
					if (x+y)%3 == 0 {
						ts.Mats().AddAbort(x, y)
					} else {
						ts.Mats().AddCommit(x, y)
					}
				}
				ts.Mats().IncExec(x)
			}
		}
		for k := 0; k < b.N; k++ {
			fill()
			s.UpdateScheme(c)
		}
	}})
}

// startCommitProbe: every other thread of the shape announces an active
// transaction and stays in it; thread 0 then starts, commits and
// finishes transactions. One op is one Start/RegisterCommit/Finish.
func startCommitProbe(b *testing.B, topo topology.Topology) {
	const numTx = 8
	eng, s := newSeer(b, topo, numTx)
	n := topo.Threads()
	bodies := make([]func(*machine.Ctx), n)
	bodies[0] = func(c *machine.Ctx) {
		c.Tick(1000) // let every other thread announce first
		ts := s.NewThreadState(c)
		for k := 0; k < b.N; k++ {
			s.Start(ts, k%numTx, 0)
			s.RegisterCommit(ts, k%numTx)
			s.Finish(ts)
		}
	}
	for i := 1; i < n; i++ {
		bodies[i] = func(c *machine.Ctx) {
			s.Start(s.NewThreadState(c), c.ID()%numTx, 0)
		}
	}
	runEngine(b, eng, bodies)
}

// mergeProbe: one op drains one thread's 16-block statistics into the
// global matrices.
func mergeProbe(b *testing.B) {
	const n = 16
	dst, src := stats.NewMatrices(n), stats.NewMatrices(n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			src.AddCommit(x, y)
			src.AddAbort(y, x)
		}
		src.IncExec(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MergeFrom(src)
	}
}

// atomicProbe: one op is an uncontended Thread.Atomic on a system built
// by seer.NewSystem under the policy.
func atomicProbe(b *testing.B, pol seer.PolicyKind) {
	cfg := seer.DefaultConfig()
	cfg.Threads = 1
	cfg.Policy = pol
	cfg.MemWords = 1 << 14
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	a := sys.AllocLines(1)
	body := func(acc seer.Access) { acc.Store(a, acc.Load(a)+1) }
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sys.Run([]seer.Worker{func(t *seer.Thread) {
		for k := 0; k < b.N; k++ {
			t.Atomic(0, body)
		}
	}}); err != nil {
		b.Fatal(err)
	}
}

// rawAccess reads and writes committed memory directly, outside any
// transaction and without advancing simulated time.
type rawAccess struct{ m *mem.Memory }

func (r rawAccess) Load(a mem.Addr) uint64     { return r.m.Peek(a) }
func (r rawAccess) Store(a mem.Addr, v uint64) { r.m.Poke(a, v) }
func (r rawAccess) Work(uint64)                {}
func (r rawAccess) ThreadID() int              { return 0 }

func tmdsEnv(words int) (*mem.Memory, rawAccess, *tmds.Arena) {
	m := mem.New(words)
	return m, rawAccess{m}, tmds.NewArena(m, words/2, 1)
}

// tmdsKeys is the key range of the lookup probes.
const tmdsKeys = 100000

// insertBatch is how many fresh keys the inserting probes add to one
// structure before they replace it, with the timer stopped, by an empty
// one. One op is then always an insert of a key not yet present into a
// structure of fewer than insertBatch keys, whatever b.N is.
const insertBatch = 4096

// freshKey spreads i over the key space; distinct i give distinct keys.
func freshKey(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 }

func hashMapGetProbe(b *testing.B) {
	m, acc, arena := tmdsEnv(1 << 21)
	h := tmds.NewHashMap(m, 4096, arena)
	for k := uint64(0); k < tmdsKeys; k++ {
		h.Put(acc, k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(acc, uint64(i%tmdsKeys))
	}
}

func hashMapPutProbe(b *testing.B) {
	newMap := func() (rawAccess, *tmds.HashMap) {
		m, acc, arena := tmdsEnv(1 << 16)
		return acc, tmds.NewHashMap(m, insertBatch, arena)
	}
	acc, h := newMap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%insertBatch == 0 {
			b.StopTimer()
			acc, h = newMap()
			b.StartTimer()
		}
		h.Put(acc, freshKey(i), uint64(i))
	}
}

func rbTreeGetProbe(b *testing.B) {
	m, acc, arena := tmdsEnv(1 << 21)
	t := tmds.NewRBTree(m, arena)
	for k := uint64(0); k < tmdsKeys; k++ {
		t.Insert(acc, k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(acc, uint64(i%tmdsKeys))
	}
}

func rbTreeInsertProbe(b *testing.B) {
	newTree := func() (rawAccess, *tmds.RBTree) {
		m, acc, arena := tmdsEnv(1 << 17)
		return acc, tmds.NewRBTree(m, arena)
	}
	acc, t := newTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%insertBatch == 0 {
			b.StopTimer()
			acc, t = newTree()
			b.StartTimer()
		}
		t.Insert(acc, freshKey(i), uint64(i))
	}
}

// queueProbe: one op is a push and a pop.
func queueProbe(b *testing.B) {
	m, acc, _ := tmdsEnv(1 << 14)
	q := tmds.NewQueue(m, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(acc, uint64(i))
		q.Pop(acc)
	}
}
