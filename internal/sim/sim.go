// Package sim provides the deterministic cycle-level simulation kernel
// used by every hardware model in the repository.
//
// A machine is a fixed, ordered list of Tickers, and a simulated cycle
// visits them in registration order. Registration order is therefore
// part of the machine definition: models register in a fixed
// architectural order (coordinator, lanes by index, NoC, memory) and
// communicate through Queue/Pipe and named input edges. A run is
// bit-deterministic: identical inputs produce identical cycle counts on
// every platform.
//
// # Wake-driven execution
//
// With FastForward set, a component ticks only at its due cycle. After
// each of its ticks the engine asks its Forecaster for the next cycle
// it could act. A component that hands another one new input wakes it
// through Wake, and the woken component is re-asked for its forecast at
// its own position in the cycle. When no component is due, time jumps
// straight to the earliest due cycle. Skipper replays the time-linear
// accounting (busy counters, stall attribution) of the cycles a
// component sleeps through, so every statistic equals that of a run
// which ticks every component every cycle — what the engine does with
// FastForward off. See DESIGN.md §11 for the contract.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Cycle is a point in simulated time, measured in clock cycles from
// machine reset (cycle 0 is the first executed cycle).
type Cycle int64

// Never is the forecast of a component that cannot act again without
// new external input. It compares greater than every reachable cycle.
const Never Cycle = math.MaxInt64

// Ticker is a hardware component advanced one cycle at a time.
type Ticker interface {
	// Tick advances the component by one cycle. now is the cycle being
	// executed.
	Tick(now Cycle)
}

// Idler is implemented by components that can report quiescence. The
// engine stops when every registered Idler reports Idle and the run's
// Done predicate (if any) holds.
type Idler interface {
	// Idle reports whether the component has no pending work: empty
	// queues, no in-flight requests, no buffered state awaiting drain.
	Idle() bool
}

// Forecaster is the wake protocol's forecast. A component implementing
// it promises: if NextEvent(now) returns h, then Tick at every cycle in
// [now, h) would change no externally visible state and no statistic —
// except time-linear accounting declared via Skipper — provided the
// component receives no new input before h.
//
// The contract in detail:
//
//   - now is the next cycle the component could tick. Return now (or
//     anything ≤ now) when the component may act immediately; return
//     Never when it cannot act again without new input (a new message,
//     a queue push, a shared gate flipping). Values below now are
//     treated as now, so stale-but-conservative forecasts are safe.
//   - The forecast must account for everything already buffered inside
//     the component: a queued message, an in-flight pipe item, a timer
//     such as a link busy-until or a config-done cycle.
//   - It must never be optimistic. Forecasting h when the component
//     would in fact act at some cycle < h silently corrupts the
//     simulation; forecasting too early only wastes a tick.
//   - The engine asks after each of the component's own ticks and after
//     each Wake, not every cycle. So every input that can move a
//     forecast earlier must arrive with a Wake: the forecast stands
//     until one does.
//
// A component that does not forecast is due every cycle; the others
// still sleep.
type Forecaster interface {
	// NextEvent returns the earliest cycle ≥ now at which the
	// component's Tick could do anything beyond Skipper-declared
	// time-linear accounting, or Never.
	NextEvent(now Cycle) Cycle
}

// Skipper is implemented by Forecasters whose per-cycle effects during
// event-free cycles are time-linear (busy-cycle counters, stall
// attribution) and can therefore be applied in bulk. Before a sleeping
// component ticks, takes input through Wake, or the run ends, the
// engine calls Skip(from, to) for the cycles [from, to) it slept
// through; the component must mutate its counters exactly as to-from
// individual Ticks over [from, to) would have.
type Skipper interface {
	Skip(from, to Cycle)
}

// reg is one registered component with its optional protocol facets
// resolved once, so the per-cycle loop never re-type-asserts.
type reg struct {
	t Ticker
	f Forecaster // nil when the component does not forecast
	s Skipper    // nil when it has no time-linear accounting
}

// Engine drives a fixed set of components through simulated time.
type Engine struct {
	regs  []reg
	names []string
	// idlers and idlerNames hold the Idler subset of tickers (resolved
	// once at Register so quiescence scans and deadlock diagnostics
	// never re-type-assert).
	idlers     []Idler
	idlerNames []string
	// due[i] is the cycle at which component i is next visited. A visit
	// ticks it, unless recheck[i] says a Wake arrived since its last
	// forecast: then it is re-asked first and ticks only if the answer
	// is the visit's cycle. settled[i] is the first cycle whose
	// time-linear accounting component i has not yet applied. The
	// slices are dense so the per-cycle scan reads one word each.
	due     []Cycle
	settled []Cycle
	recheck []bool
	// cur is the component being visited, or -1 between cycles: the
	// position that decides whether a Wake lands in this cycle or the
	// next.
	cur int
	now Cycle
	// MaxCycles aborts a run that fails to quiesce; a safety net for
	// model bugs (deadlocked credit loops and the like). Zero means the
	// DefaultMaxCycles limit.
	MaxCycles Cycle
	// FastForward opts the run into wake-driven execution: components
	// sleep until their forecast or a Wake makes them due, and time
	// jumps over cycles in which none is. Off, every component ticks
	// every cycle. Results are byte-identical either way; only wall
	// time changes. Done predicates passed to Run must depend on
	// component state only, never on Now() directly, since jumped
	// cycles are not individually observed. Set it before the run
	// starts.
	FastForward bool
	// ExecutedCycles counts cycles in which some component ticked,
	// SkippedCycles the others (jumped over, or visited only to re-ask
	// a woken component), and Ticks the component ticks. They never
	// enter simulation results — purely wall-time diagnostics.
	ExecutedCycles int64
	SkippedCycles  int64
	Ticks          int64
}

// DefaultMaxCycles bounds runs whose Engine.MaxCycles is unset.
const DefaultMaxCycles Cycle = 2_000_000_000

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{cur: -1} }

// Register appends a component to the tick order and returns its id,
// the argument of Wake. The name is used in diagnostics. If the
// component implements Idler it also participates in quiescence
// detection; if it implements Forecaster it sleeps between events.
// Every component ticks at the cycle it is registered in.
func (e *Engine) Register(name string, t Ticker) int {
	r := reg{t: t}
	r.f, _ = t.(Forecaster)
	r.s, _ = t.(Skipper)
	e.regs = append(e.regs, r)
	e.names = append(e.names, name)
	e.due = append(e.due, e.now)
	e.settled = append(e.settled, e.now)
	e.recheck = append(e.recheck, false)
	if id, ok := t.(Idler); ok {
		e.idlers = append(e.idlers, id)
		e.idlerNames = append(e.idlerNames, name)
	}
	return len(e.regs) - 1
}

// Now returns the current cycle: the cycle being executed during a
// Step, and the number of executed or jumped cycles between Steps.
func (e *Engine) Now() Cycle { return e.now }

// Wake tells the engine that component id has new input. Call it
// before applying the input: it first replays id's time-linear
// accounting up to the cycle the input lands in, under the state id
// slept in.
//
// The input lands in the current cycle when the caller comes earlier in
// tick order than id (or calls between cycles), and in the next cycle
// when the caller is id itself or comes later — the first cycle in
// which a forecast evaluated at id's own position sees it. There id is
// re-asked for its forecast, and it ticks only if the answer is that
// cycle. With FastForward off every component ticks every cycle and
// Wake does nothing.
func (e *Engine) Wake(id int) {
	if e.FastForward {
		e.wake(id)
	}
}

func (e *Engine) wake(id int) {
	at := e.now
	if id <= e.cur {
		at++
	}
	e.settle(id, at)
	if at < e.due[id] {
		e.due[id] = at
		e.recheck[id] = true
	}
}

// settle replays component i's accounting up to cycle to.
func (e *Engine) settle(i int, to Cycle) {
	if e.settled[i] < to {
		e.replay(i, to)
	}
}

// replay is settle's out-of-line half, kept apart so that the check
// in settle inlines into Step and wake.
func (e *Engine) replay(i int, to Cycle) {
	if s := e.regs[i].s; s != nil {
		s.Skip(e.settled[i], to)
	}
	e.settled[i] = to
}

// Waker wakes one registered component. It lets a model outside this
// package signal input without knowing the engine's layout; the zero
// Waker does nothing, so a component can run without an engine.
type Waker struct {
	e  *Engine
	id int
}

// Waker returns the Waker of component id.
func (e *Engine) Waker(id int) Waker { return Waker{e: e, id: id} }

// Wake calls Engine.Wake for the component.
func (w Waker) Wake() {
	if w.e != nil {
		w.e.Wake(w.id)
	}
}

// Step executes cycle Now(): it visits, in registration order, every
// component due at it, then advances Now by one.
func (e *Engine) Step() {
	now := e.now
	var ticks int64
	for i := range e.due {
		if e.due[i] > now {
			continue
		}
		e.cur = i
		r := &e.regs[i]
		if e.recheck[i] {
			e.recheck[i] = false
			if ev := r.f.NextEvent(now); ev > now {
				e.due[i] = ev
				continue
			}
		}
		e.settle(i, now)
		e.settled[i] = now + 1
		r.t.Tick(now)
		ticks++
		e.due[i] = now + 1
		if e.FastForward && r.f != nil {
			e.due[i] = max(r.f.NextEvent(now+1), now+1)
		}
	}
	e.cur = -1
	e.now = now + 1
	e.Ticks += ticks
	if ticks > 0 {
		e.ExecutedCycles++
	} else {
		e.SkippedCycles++
	}
}

// nextDue returns the earliest cycle at which any component is due.
func (e *Engine) nextDue() Cycle {
	next := Never
	for _, d := range e.due {
		next = min(next, d)
	}
	return next
}

// CheckWakes reports a forecasting component whose forecast, asked now,
// is earlier than the engine will next visit it: the trace of an input
// that reached it without a Wake. A component that slept through the
// cycle just stepped is asked at that cycle, at which a forecast that
// says it would have acted then exposes an input that landed during
// the cycle; one that ticked is asked at Now(). It also reports a
// component due before Now(), which no Step would visit in its cycle.
// Call it between Steps of a run that never jumps; it is a test of the
// models' wake edges, and costs a forecast per component.
func (e *Engine) CheckWakes() error {
	for i, r := range e.regs {
		if e.due[i] < e.now {
			return fmt.Errorf("sim: %s is due at cycle %d, before cycle %d", e.names[i], e.due[i], e.now)
		}
		if r.f == nil || e.recheck[i] {
			continue
		}
		at := e.now
		if e.settled[i] < at {
			at-- // slept through the cycle just stepped
		}
		if ev := r.f.NextEvent(at); max(ev, at) < e.due[i] {
			return fmt.Errorf("sim: %s forecasts cycle %d at cycle %d but sleeps until %d: an input reached it without a Wake",
				e.names[i], max(ev, at), at, e.due[i])
		}
	}
	return nil
}

// quiescent reports whether every Idler is idle.
func (e *Engine) quiescent() bool {
	for _, id := range e.idlers {
		if !id.Idle() {
			return false
		}
	}
	return true
}

// Run executes cycles until done() returns true and all components are
// idle, returning the total executed cycles. done may be nil, in which
// case only quiescence terminates the run. Run returns an error if the
// cycle limit is exceeded, identifying the non-idle components, or, if
// every component is idle, saying that done() is what never held.
//
// When FastForward is set, components sleep between their events and
// Run jumps over cycles in which none is due (see the package comment);
// cycle counts, statistics, and termination are byte-identical to a
// run that ticks every component every cycle. Before returning, Run
// replays every sleeping component's accounting up to the final cycle.
func (e *Engine) Run(done func() bool) (Cycle, error) {
	t0 := time.Now()
	c, err := e.run(done)
	for i := range e.regs {
		e.settle(i, e.now)
	}
	mergeHostProf(&HostProf{
		Runs:           1,
		ExecutedCycles: e.ExecutedCycles,
		SkippedCycles:  e.SkippedCycles,
		Ticks:          e.Ticks,
		TotalNS:        int64(time.Since(t0)),
	})
	return c, err
}

// run is the cycle loop behind Run.
func (e *Engine) run(done func() bool) (Cycle, error) {
	limit := e.MaxCycles
	if limit <= 0 {
		limit = DefaultMaxCycles
	}
	for {
		if (done == nil || done()) && e.quiescent() {
			return e.now, nil
		}
		if e.now >= limit {
			busy := e.busyNames()
			if len(busy) == 0 {
				return e.now, fmt.Errorf("sim: cycle limit %d exceeded; every component is idle but the done predicate is unmet", limit)
			}
			return e.now, fmt.Errorf("sim: cycle limit %d exceeded; busy components: %v", limit, busy)
		}
		if e.FastForward {
			// Jump to the earliest due cycle, clamped to the limit so a
			// stuck run reports at the same cycle as a ticked one.
			if next := min(e.nextDue(), limit); next > e.now {
				e.SkippedCycles += int64(next - e.now)
				e.now = next
				continue
			}
		}
		e.Step()
	}
}

// busyNames lists registered names of components that are not idle.
func (e *Engine) busyNames() []string {
	var busy []string
	for i, id := range e.idlers {
		if !id.Idle() {
			busy = append(busy, e.idlerNames[i])
		}
	}
	return busy
}
