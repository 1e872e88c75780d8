package noc

import (
	"testing"

	"taskstream/internal/sim"
)

// BenchmarkMeshArbitration measures flit arbitration and routing under
// sustained all-to-all traffic on a 4x4 mesh: every node keeps one
// message in flight to a rotating destination, so links contend and the
// blocked-head retry path stays hot. Once warmed, the mesh must run at
// 0 allocs/cycle: queues, rings and the arrival pipe reuse their
// storage, so any per-message allocation fails the benchmark. (Under
// this oversubscribed load a blocked head can still grow its link's
// ring now and then, far less than once per cycle.)
func BenchmarkMeshArbitration(b *testing.B) {
	m := NewMesh(cfg(), 16)
	sent := 0
	now := sim.Cycle(0)
	cycle := func() {
		for src := 0; src < 16; src++ {
			dst := (src + 1 + sent%15) % 16
			if m.TryInject(Message{Kind: KindMemReq, Src: src, Dests: DestMask(dst), Bytes: 64}) {
				sent++
			}
		}
		m.Tick(now)
		for n := 0; n < 16; n++ {
			for {
				if _, ok := m.Pop(n); !ok {
					break
				}
			}
		}
		now++
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		b.Fatalf("warmed mesh allocated %v allocs/cycle, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkMeshIdleTick measures the cost of ticking a mesh with no
// traffic at all — the cycle the counter-gated early return makes O(1).
func BenchmarkMeshIdleTick(b *testing.B) {
	m := NewMesh(cfg(), 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick(sim.Cycle(i))
	}
}
