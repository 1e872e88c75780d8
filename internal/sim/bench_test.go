package sim

import "testing"

// BenchmarkEngineStep measures the wake-driven loop's per-cycle cost in
// the two regimes it cares about: a machine of mostly sleeping
// components (one visit in a thousand ticks) and a machine where every
// component acts every cycle. Either way a Step allocates nothing.
func BenchmarkEngineStep(b *testing.B) {
	bench := func(b *testing.B, busyEvery Cycle) {
		e := NewEngine()
		e.FastForward = true
		for i := 0; i < 16; i++ {
			e.Register("pulser", &pulser{period: busyEvery, count: 1 << 62})
		}
		if a := testing.AllocsPerRun(100, e.Step); a != 0 {
			b.Fatalf("Step allocates %v times per cycle", a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}
	b.Run("idle-heavy", func(b *testing.B) { bench(b, 1000) })
	b.Run("busy", func(b *testing.B) { bench(b, 1) })
}

// BenchmarkEngineRunFastForward compares whole-run cost with skipping
// on and off over an idle-heavy machine.
func BenchmarkEngineRunFastForward(b *testing.B) {
	bench := func(b *testing.B, ff bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			e.FastForward = ff
			for j := 0; j < 16; j++ {
				e.Register("pulser", &pulser{period: 500, count: 100})
			}
			if _, err := e.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("on", func(b *testing.B) { bench(b, true) })
	b.Run("off", func(b *testing.B) { bench(b, false) })
}
