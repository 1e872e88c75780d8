package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// counter ticks until it reaches a target, then idles.
type counter struct {
	n, target int
}

func (c *counter) Tick(Cycle) {
	if c.n < c.target {
		c.n++
	}
}
func (c *counter) Idle() bool { return c.n >= c.target }

func TestEngineRunsUntilQuiescent(t *testing.T) {
	e := NewEngine()
	c := &counter{target: 17}
	e.Register("counter", c)
	cycles, err := e.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cycles != 17 {
		t.Fatalf("cycles = %d, want 17", cycles)
	}
	if c.n != 17 {
		t.Fatalf("counter = %d, want 17", c.n)
	}
}

func TestEngineDonePredicate(t *testing.T) {
	// A done predicate that requires more progress than quiescence: the
	// counter idles at 5, but done demands the engine reach cycle 9.
	e := NewEngine()
	e.Register("counter", &counter{target: 5})
	cycles, err := e.Run(func() bool { return e.Now() >= 9 })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cycles != 9 {
		t.Fatalf("cycles = %d, want 9", cycles)
	}
}

// spinner never idles; used to exercise the cycle limit.
type spinner struct{}

func (spinner) Tick(Cycle) {}
func (spinner) Idle() bool { return false }

func TestEngineCycleLimit(t *testing.T) {
	e := NewEngine()
	e.MaxCycles = 100
	e.Register("spin", spinner{})
	cycles, err := e.Run(nil)
	if err == nil {
		t.Fatal("want cycle-limit error, got nil")
	}
	if cycles != 100 {
		t.Fatalf("cycles = %d, want 100", cycles)
	}
	if !strings.Contains(err.Error(), "spin") {
		t.Fatalf("error should name busy component: %v", err)
	}
}

func TestEngineTickOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	mk := func(name string) Ticker {
		return tickFunc(func(Cycle) { order = append(order, name) })
	}
	e.Register("a", mk("a"))
	e.Register("b", mk("b"))
	e.Register("c", mk("c"))
	e.Step()
	e.Step()
	want := "abcabc"
	if got := strings.Join(order, ""); got != want {
		t.Fatalf("tick order = %q, want %q", got, want)
	}
}

type tickFunc func(Cycle)

func (f tickFunc) Tick(c Cycle) { f(c) }

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](3)
	if !q.Empty() || q.Full() {
		t.Fatal("new queue should be empty")
	}
	for i := 0; i < 3; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push into full queue should fail")
	}
	if v, ok := q.Peek(); !ok || v != 0 {
		t.Fatalf("peek = %d,%v want 0,true", v, ok)
	}
	for i := 0; i < 3; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue should fail")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue[int](2)
	next := 0
	for i := 0; i < 50; i++ {
		q.Push(i * 2)
		q.Push(i*2 + 1)
		for !q.Empty() {
			v, _ := q.Pop()
			if v != next {
				t.Fatalf("wraparound order broken: got %d want %d", v, next)
			}
			next++
		}
	}
}

func TestQueuePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for capacity 0")
		}
	}()
	NewQueue[int](0)
}

func TestQueueProperty(t *testing.T) {
	// Property: any interleaving of pushes and pops preserves FIFO
	// order and never loses or duplicates an accepted item.
	f := func(ops []bool) bool {
		q := NewQueue[int](4)
		var model []int
		next := 0
		for _, push := range ops {
			if push {
				accepted := q.Push(next)
				if accepted != (len(model) < 4) {
					return false
				}
				if accepted {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPipeLatency(t *testing.T) {
	p := NewPipe[string](5)
	p.Send(10, "x")
	for now := Cycle(10); now < 15; now++ {
		if _, ok := p.Recv(now); ok {
			t.Fatalf("item visible at %d, before latency elapsed", now)
		}
	}
	v, ok := p.Recv(15)
	if !ok || v != "x" {
		t.Fatalf("Recv(15) = %q,%v want x,true", v, ok)
	}
	if !p.Empty() {
		t.Fatal("pipe should be empty after delivery")
	}
}

func TestPipeOrdering(t *testing.T) {
	p := NewPipe[int](0)
	p.SendAt(7, 1)
	p.SendAt(3, 0)
	p.SendAt(7, 2) // same cycle as the first: insertion order
	got := []int{}
	for now := Cycle(0); now < 10; now++ {
		for {
			v, ok := p.Recv(now)
			if !ok {
				break
			}
			got = append(got, v)
		}
	}
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", got, want)
		}
	}
}

func TestPipeZeroLatency(t *testing.T) {
	p := NewPipe[int](0)
	p.Send(4, 42)
	if v, ok := p.Recv(4); !ok || v != 42 {
		t.Fatalf("zero-latency pipe should deliver same cycle, got %d,%v", v, ok)
	}
}

func TestPipeProperty(t *testing.T) {
	// Property: every item sent is received exactly once, never before
	// its maturity cycle, and same-cycle items arrive in send order.
	f := func(delays []uint8) bool {
		p := NewPipe[int](3)
		for i, d := range delays {
			p.SendAt(Cycle(d), i)
		}
		seen := make(map[int]Cycle)
		var lastAt Cycle
		var lastSeq int
		for now := Cycle(0); now < 300; now++ {
			for {
				v, ok := p.Recv(now)
				if !ok {
					break
				}
				if _, dup := seen[v]; dup {
					return false
				}
				seen[v] = now
				if Cycle(delays[v]) > now {
					return false // delivered early
				}
				if now == lastAt && Cycle(delays[v]) == Cycle(delays[lastSeq]) && v < lastSeq {
					return false // same maturity cycle, out of send order
				}
				lastAt, lastSeq = now, v
			}
		}
		return len(seen) == len(delays) && p.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPipeMatchesStableSort checks the pipe against a reference model:
// a random interleaving of Send, SendAt and Recv at an advancing now
// must deliver every item exactly once, never before it matures, and
// in the order of a stable sort of the sends by maturity cycle. SendAt
// draws cycles that often mature before the newest in-flight item —
// what a lane's production or spawn pipe would see if a shorter-latency
// task type followed a longer one — so sends walk back past later
// items. Dozens of items stay in flight, so the ring grows while its
// contents wrap around the end of the slots. The test asserts that
// both paths ran.
func TestPipeMatchesStableSort(t *testing.T) {
	type sent struct {
		at Cycle
		id int
	}
	var walked, grewWrapped int
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPipe[int](Cycle(rng.Intn(6)))
		var sends []sent
		var got []int
		newest := Cycle(-1) // latest maturity cycle in flight
		now := Cycle(0)
		deliver := func() {
			for {
				v, ok := p.Recv(now)
				if !ok {
					break
				}
				if sends[v].at > now {
					t.Fatalf("seed %d: item %d due at %d delivered at %d", seed, v, sends[v].at, now)
				}
				got = append(got, v)
			}
			if at := p.NextAt(); at <= now {
				t.Fatalf("seed %d: item due at %d left undelivered at %d", seed, at, now)
			}
		}
		for step := 0; step < 600; step++ {
			if p.n == len(p.ring) && p.head != 0 {
				grewWrapped++ // the next send grows a wrapped ring
			}
			r := rng.Intn(10)
			if r >= 7 {
				now += Cycle(rng.Intn(4))
				deliver()
				continue
			}
			at := now + p.latency
			if r >= 3 {
				at = now + Cycle(rng.Intn(48))
			}
			if at < newest {
				walked++
			}
			newest = max(newest, at)
			sends = append(sends, sent{at, len(sends)})
			if r < 3 {
				p.Send(now, len(sends)-1)
			} else {
				p.SendAt(at, len(sends)-1)
			}
		}
		for !p.Empty() {
			now = p.NextAt()
			deliver()
		}
		want := append([]sent(nil), sends...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("seed %d: delivered %d of %d items", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].id {
				t.Fatalf("seed %d: delivery %d is item %d, want %d (stable sort by maturity)",
					seed, i, got[i], want[i].id)
			}
		}
	}
	t.Logf("%d out-of-order sends, %d wrapped grows", walked, grewWrapped)
	if walked == 0 || grewWrapped == 0 {
		t.Fatal("coverage: want both counts > 0")
	}
}

// skipIdleProbe counts real ticks vs skips so the test can prove the
// micro-skip substituted Skip for Tick on idle cycles.
type skipIdleProbe struct {
	next  Cycle
	ticks int64
	busy  int64
}

func (p *skipIdleProbe) Tick(now Cycle) {
	p.ticks++
	p.busy++
	if now >= p.next {
		p.next = now + 10
	}
}
func (p *skipIdleProbe) Idle() bool { return p.next >= 40 }
func (p *skipIdleProbe) NextEvent(now Cycle) Cycle {
	if p.next < now {
		return now
	}
	return p.next
}
func (p *skipIdleProbe) Skip(from, to Cycle) { p.busy += int64(to - from) }

// nonForecaster keeps FF from engaging so SkipIdle is exercised on the
// plain executed-cycle path.
type nonForecaster struct{ n Cycle }

func (x *nonForecaster) Tick(now Cycle) { x.n = now }
func (x *nonForecaster) Idle() bool     { return true }

// TestSkipIdleMicroSkip pins that with SkipIdle on, idle forecasting
// components get their one-cycle Skip instead of Tick, and time-linear
// accounting stays byte-identical.
func TestSkipIdleMicroSkip(t *testing.T) {
	run := func(skipIdle bool) *skipIdleProbe {
		e := NewEngine()
		e.SkipIdle = skipIdle
		p := &skipIdleProbe{}
		e.Register("probe", p)
		e.Register("plain", &nonForecaster{})
		e.MaxCycles = 40
		_, err := e.Run(func() bool { return p.next >= 40 })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := run(false)
	fast := run(true)
	if fast.busy != base.busy {
		t.Fatalf("SkipIdle changed accounting: busy %d != %d", fast.busy, base.busy)
	}
	if fast.ticks >= base.ticks {
		t.Fatalf("SkipIdle did not suppress idle ticks: %d >= %d", fast.ticks, base.ticks)
	}
}
