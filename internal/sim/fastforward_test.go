package sim

import (
	"reflect"
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

// TestNonForecasterPinsJumps: a component without a forecast is due
// every cycle, so time never jumps while it runs, but the forecasting
// components still sleep between their events, with accounting equal
// to a run that ticks everything.
func TestNonForecasterPinsJumps(t *testing.T) {
	run := func(ff bool) (*Engine, *pulser, *counter) {
		e := NewEngine()
		e.FastForward = ff
		p := &pulser{period: 50, count: 2}
		c := &counter{target: 3}
		e.Register("pulser", p)
		e.Register("counter", c)
		if _, err := e.Run(nil); err != nil {
			t.Fatalf("Run(ff=%v): %v", ff, err)
		}
		return e, p, c
	}
	slowE, slowP, _ := run(false)
	e, p, c := run(true)
	if e.Now() != slowE.Now() || p.busy != slowP.busy || c.n != 3 {
		t.Fatalf("ff=on: %d cycles, pulser busy %d, counter %d; ff=off: %d cycles, pulser busy %d",
			e.Now(), p.busy, c.n, slowE.Now(), slowP.busy)
	}
	if e.SkippedCycles != 0 || e.ExecutedCycles != int64(e.Now()) {
		t.Fatalf("time jumped past a non-forecaster: %d executed, %d skipped of %d cycles",
			e.ExecutedCycles, e.SkippedCycles, e.Now())
	}
	if p.ticks >= int64(e.Now())/10 {
		t.Fatalf("pulser ticked %d of %d cycles; it should sleep beside a non-forecaster", p.ticks, e.Now())
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

// inbox acts only on input: it forecasts now while a message waits
// and Never otherwise, and records the cycle at which it handles each
// message. Its input edge is send, which wakes it first when wake is
// set, as every model's input edge must.
type inbox struct {
	e       *Engine
	id      int
	wake    bool
	waiting int
	handled []Cycle
	ticks   int64
}

func (b *inbox) send() {
	if b.wake {
		b.e.Wake(b.id)
	}
	b.waiting++
}

func (b *inbox) Tick(now Cycle) {
	b.ticks++
	for ; b.waiting > 0; b.waiting-- {
		b.handled = append(b.handled, now)
	}
}

func (b *inbox) Idle() bool { return b.waiting == 0 }

func (b *inbox) NextEvent(now Cycle) Cycle {
	if b.waiting > 0 {
		return now
	}
	return Never
}

// sender calls send on its listed cycles.
type sender struct {
	at   map[Cycle]bool
	send func()
}

func (s sender) Tick(now Cycle) {
	if s.at[now] {
		s.send()
	}
}

func (s sender) NextEvent(now Cycle) Cycle {
	ev := Never
	for c := range s.at {
		if c >= now && c < ev {
			ev = c
		}
	}
	return ev
}

// buildInbox registers a sender before the inbox and one after it.
func buildInbox(ff, wake bool, early, late []Cycle) (*Engine, *inbox) {
	e := NewEngine()
	e.FastForward = ff
	b := &inbox{e: e, wake: wake}
	set := func(cs []Cycle) map[Cycle]bool {
		m := make(map[Cycle]bool)
		for _, c := range cs {
			m[c] = true
		}
		return m
	}
	e.Register("early", sender{at: set(early), send: b.send})
	b.id = e.Register("inbox", b)
	e.Register("late", sender{at: set(late), send: b.send})
	return e, b
}

// TestWakePositionalRule pins where a Wake lands: input from a
// component earlier in tick order is handled in the cycle it was sent,
// input from a later one in the next cycle — the cycles at which a run
// that ticks everything handles them. The inbox ticks only then.
func TestWakePositionalRule(t *testing.T) {
	early, late := []Cycle{5, 40}, []Cycle{10, 40}
	want := []Cycle{5, 11, 40, 41}
	for _, ff := range []bool{false, true} {
		e, b := buildInbox(ff, true, early, late)
		if _, err := e.Run(func() bool { return len(b.handled) == 4 }); err != nil {
			t.Fatalf("ff=%v: %v", ff, err)
		}
		if !reflect.DeepEqual(b.handled, want) {
			t.Fatalf("ff=%v: inbox handled its input at %v, want %v", ff, b.handled, want)
		}
		if ff && b.ticks != 5 {
			t.Fatalf("woken inbox ticked %d times, want 5 (cycle 0 and each handling)", b.ticks)
		}
	}
}

// TestCheckWakesCatchesDroppedWake: input delivered without a Wake
// leaves the inbox asleep past a cycle at which its forecast says it
// would act, and CheckWakes names it at the end of that cycle — from
// an earlier sender and from a later one alike — while a run with
// every Wake passes the check at every cycle.
func TestCheckWakesCatchesDroppedWake(t *testing.T) {
	for _, tc := range []struct {
		name        string
		early, late []Cycle
	}{{"early", []Cycle{7}, nil}, {"late", nil, []Cycle{7}}} {
		for _, wake := range []bool{true, false} {
			e, b := buildInbox(true, wake, tc.early, tc.late)
			var caught Cycle = -1
			for e.Now() < 20 && caught < 0 {
				e.Step()
				if err := e.CheckWakes(); err != nil {
					if !strings.Contains(err.Error(), "inbox") {
						t.Fatalf("%s: error names the wrong component: %v", tc.name, err)
					}
					caught = e.Now() - 1
				}
			}
			switch {
			case wake && caught >= 0:
				t.Fatalf("%s: CheckWakes failed a run with every Wake at cycle %d", tc.name, caught)
			case !wake && caught != 7:
				t.Fatalf("%s: dropped wake at cycle 7 caught at cycle %d", tc.name, caught)
			case wake && len(b.handled) != 1:
				t.Fatalf("%s: inbox handled %v", tc.name, b.handled)
			}
		}
	}
}

// account is a worker whose time-linear accounting depends on the state
// its input changes, the way a lane counts busy cycles from its task
// queue: busy while it holds a job, a job done hold cycles after it
// arrives. take is its input edge; settleFirst says whether it wakes
// the engine before adding the job, as the contract requires, or
// after.
type account struct {
	e           *Engine
	id          int
	settleFirst bool
	hold        Cycle
	jobs        []Cycle // finish cycles, in order
	busy        int64
	ticks       int64
}

func (a *account) take(now Cycle) {
	if a.settleFirst {
		a.e.Wake(a.id)
	}
	a.jobs = append(a.jobs, now+a.hold)
	if !a.settleFirst {
		a.e.Wake(a.id)
	}
}

func (a *account) Tick(now Cycle) {
	a.ticks++
	if len(a.jobs) > 0 {
		a.busy++
		if a.jobs[0] <= now {
			a.jobs = a.jobs[1:]
		}
	}
}

func (a *account) Idle() bool { return len(a.jobs) == 0 }

func (a *account) NextEvent(now Cycle) Cycle {
	if len(a.jobs) == 0 {
		return Never
	}
	return a.jobs[0]
}

func (a *account) Skip(from, to Cycle) {
	if len(a.jobs) > 0 {
		a.busy += int64(to - from)
	}
}

// TestWakeSettlesBeforeInput: a Wake replays the sleeping worker's
// accounting under the state it slept in before the input lands, so
// its busy count equals a run that ticks everything. A job from the
// feeder behind the worker lands a cycle later, so the cycle the
// worker slept through at its position settles as idle. Waking after
// the input would count the idle stretch before each job as busy,
// which the last check pins. The woken worker ticks only when a job
// finishes: a wake re-asks its forecast rather than forcing a tick.
func TestWakeSettlesBeforeInput(t *testing.T) {
	run := func(ff, settleFirst bool) *account {
		e := NewEngine()
		e.FastForward = ff
		a := &account{e: e, settleFirst: settleFirst, hold: 6}
		sent := 0
		feed := func() { a.take(e.Now()); sent++ }
		e.Register("early", sender{at: map[Cycle]bool{30: true, 33: true, 90: true}, send: feed})
		a.id = e.Register("worker", a)
		e.Register("late", sender{at: map[Cycle]bool{60: true}, send: feed})
		if _, err := e.Run(func() bool { return sent == 4 }); err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := run(false, true).busy
	a := run(true, true)
	if a.busy != want {
		t.Fatalf("busy %d with the wake before the input, %d ticking every cycle", a.busy, want)
	}
	if a.ticks != 5 {
		t.Fatalf("worker ticked %d times, want 5 (cycle 0 and each job's finish)", a.ticks)
	}
	if got := run(true, false).busy; got == want {
		t.Fatalf("busy %d with the wake after the input: the test cannot tell the orders apart", got)
	}
}
