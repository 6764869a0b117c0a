package machine

import (
	"testing"

	"seer/internal/topology"
)

// BenchmarkTick times one yielding Tick per op with every hardware thread
// live: 8 threads on the paper's 1s4c2t testbed and 128 on 4s16c2t, the
// widest scaling shape.
func BenchmarkTick(b *testing.B) {
	for _, tc := range []struct {
		name string
		topo topology.Topology
	}{
		{"8t", topology.SMT2(4)},
		{"128t", topology.Multi(4, 16, 2)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Topo = tc.topo
			eng, _ := New(cfg)
			n := tc.topo.Threads()
			bodies := make([]func(*Ctx), n)
			per := b.N/n + 1
			for i := range bodies {
				bodies[i] = func(c *Ctx) {
					for k := 0; k < per; k++ {
						c.Tick(1)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run(bodies)
		})
	}
}
