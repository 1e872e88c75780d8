package sim

import (
	"strings"
	"testing"
)

// pulser acts every period cycles until it has fired count times, and
// counts every cycle it still has work as busy — a miniature of the
// hardware models' time-linear accounting. It implements the full
// forecast/skip protocol.
type pulser struct {
	period Cycle
	count  int

	fired int
	next  Cycle
	busy  int64
	ticks int64
}

func (p *pulser) Tick(now Cycle) {
	p.ticks++
	if p.fired < p.count {
		p.busy++
	}
	if p.fired < p.count && now >= p.next {
		p.fired++
		p.next = now + p.period
	}
}

func (p *pulser) Idle() bool { return p.fired >= p.count }

func (p *pulser) NextEvent(now Cycle) Cycle {
	if p.fired >= p.count {
		return Never
	}
	if p.next <= now {
		return now
	}
	return p.next
}

func (p *pulser) Skip(from, to Cycle) {
	if p.fired < p.count {
		p.busy += int64(to - from)
	}
}

func runPulsers(t *testing.T, ff bool, specs [][2]int) (Cycle, []int64, int64) {
	t.Helper()
	e := NewEngine()
	e.FastForward = ff
	var ps []*pulser
	for _, s := range specs {
		p := &pulser{period: Cycle(s[0]), count: s[1]}
		ps = append(ps, p)
		e.Register("pulser", p)
	}
	cycles, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run(ff=%v): %v", ff, err)
	}
	var busy []int64
	var ticks int64
	for _, p := range ps {
		busy = append(busy, p.busy)
		ticks += p.ticks
	}
	return cycles, busy, ticks
}

func TestFastForwardByteIdentical(t *testing.T) {
	// Mixed periods so horizons interleave; cycle counts and every
	// time-linear counter must match a cycle-by-cycle run exactly.
	specs := [][2]int{{7, 5}, {13, 3}, {1, 40}, {100, 2}}
	slowC, slowB, slowT := runPulsers(t, false, specs)
	fastC, fastB, fastT := runPulsers(t, true, specs)
	if slowC != fastC {
		t.Fatalf("cycles: ff=off %d, ff=on %d", slowC, fastC)
	}
	for i := range slowB {
		if slowB[i] != fastB[i] {
			t.Fatalf("pulser %d busy: ff=off %d, ff=on %d", i, slowB[i], fastB[i])
		}
	}
	if fastT >= slowT {
		t.Fatalf("fast-forward executed %d ticks, cycle-by-cycle %d; expected fewer", fastT, slowT)
	}
}

func TestFastForwardNeedsEveryForecaster(t *testing.T) {
	// One non-forecasting component must disable skipping machine-wide.
	e := NewEngine()
	e.FastForward = true
	p := &pulser{period: 50, count: 2}
	e.Register("pulser", p)
	e.Register("counter", &counter{target: 3})
	cycles, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.ticks != int64(cycles) {
		t.Fatalf("pulser ticked %d of %d cycles; skipping engaged without full coverage", p.ticks, cycles)
	}
}

func TestFastForwardCycleLimit(t *testing.T) {
	// A stuck forecastable machine (event beyond the limit) must hit the
	// limit with the same cycle count and diagnostics as a slow run.
	run := func(ff bool) (Cycle, int64, error) {
		e := NewEngine()
		e.FastForward = ff
		e.MaxCycles = 1000
		p := &pulser{period: 5000, count: 1}
		p.next = 5000 // first event beyond the limit
		e.Register("stuck", p)
		c, err := e.Run(nil)
		return c, p.busy, err
	}
	slowC, slowB, slowErr := run(false)
	fastC, fastB, fastErr := run(true)
	if slowErr == nil || fastErr == nil {
		t.Fatalf("want cycle-limit errors, got %v / %v", slowErr, fastErr)
	}
	if slowC != fastC || slowB != fastB {
		t.Fatalf("limit behavior differs: ff=off (%d cycles, busy %d), ff=on (%d cycles, busy %d)",
			slowC, slowB, fastC, fastB)
	}
	if !strings.Contains(fastErr.Error(), "stuck") {
		t.Fatalf("error should name the busy component: %v", fastErr)
	}
}

func TestBusyNamesListsExactlyNonIdle(t *testing.T) {
	// Deadlock diagnostics must name each non-idle component once, in
	// registration order, and skip idle ones and non-Idlers.
	e := NewEngine()
	e.Register("done", &counter{target: 0})
	e.Register("stuck-a", spinner{})
	e.Register("anonymous", tickFunc(func(Cycle) {})) // no Idler: never listed
	e.Register("stuck-b", spinner{})
	got := e.busyNames()
	want := []string{"stuck-a", "stuck-b"}
	if len(got) != len(want) {
		t.Fatalf("busyNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("busyNames = %v, want %v", got, want)
		}
	}
}

func TestPipeNextAt(t *testing.T) {
	p := NewPipe[int](0)
	if p.NextAt() != Never {
		t.Fatal("empty pipe should forecast Never")
	}
	p.SendAt(9, 1)
	p.SendAt(4, 2)
	p.SendAt(6, 3)
	if at := p.NextAt(); at != 4 {
		t.Fatalf("NextAt = %d, want 4 (earliest maturity)", at)
	}
	if _, ok := p.Recv(4); !ok {
		t.Fatal("item due at 4 not delivered")
	}
	if at := p.NextAt(); at != 6 {
		t.Fatalf("NextAt after pop = %d, want 6", at)
	}
}

// TestHorizonIndependentOfScanStart pins the horizon scan's order
// independence: whichever component the scan asks first, the answer
// is the cycle the full scan finds, through a run whose immediate
// events move between components.
func TestHorizonIndependentOfScanStart(t *testing.T) {
	e := NewEngine()
	e.FastForward = true
	for _, s := range [][2]int{{7, 40}, {3, 90}, {11, 30}, {5, 60}} {
		e.Register("pulser", &pulser{period: Cycle(s[0]), count: s[1]})
	}
	moved := 0
	for step := 0; step < 400; step++ {
		want := Never
		for i := range e.regs {
			want = min(want, max(e.regs[i].f.NextEvent(e.now), e.now))
		}
		for start := range e.regs {
			e.hot = start
			if got := e.horizon(); got != want {
				t.Fatalf("cycle %d: horizon asking component %d first = %d, full scan %d", e.now, start, got, want)
			}
			if e.hot != start {
				moved++
			}
		}
		e.Step()
	}
	if moved == 0 {
		t.Fatal("no scan ever moved to another component")
	}
}
