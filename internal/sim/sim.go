// Package sim provides the deterministic cycle-level simulation kernel
// used by every hardware model in the repository.
//
// The kernel is intentionally simple: a machine is a fixed, ordered list
// of Tickers. Each simulated cycle the engine calls Tick on every
// component in registration order. All cross-component communication
// happens through bounded queues and latency pipes from this package, so
// a run is bit-deterministic: identical inputs produce identical cycle
// counts on every platform.
//
// Single-phase ticking means registration order is part of the machine
// definition. Models in this repository always register components in
// a fixed architectural order (memory, NoC, lanes by index) and
// communicate only through Queue/Pipe, which decouple producer and
// consumer by at least one cycle of visibility where it matters.
//
// # Event-horizon fast-forwarding
//
// Run supports an opt-in discrete-event acceleration: when every
// registered component implements Forecaster, the engine computes the
// minimum "event horizon" after each executed cycle — the earliest
// future cycle at which any component's externally visible state can
// change — and advances time directly to it instead of executing the
// intervening empty cycles. Components whose per-cycle behavior during
// those empty cycles is pure time-linear accounting (busy counters,
// stall attribution) implement Skipper so the engine can replay that
// accounting in bulk, keeping every statistic byte-identical to a
// cycle-by-cycle run. See DESIGN.md §11 for the full contract.
//
// SkipIdle applies the same contract at per-component granularity
// within executed cycles: a component whose forecast is beyond now has
// promised its Tick would do nothing beyond Skipper-declared
// accounting, so the engine replays that accounting (Skip(now, now+1))
// instead of ticking it. Because the forecast is evaluated at the
// component's own position in the tick order, it sees exactly the
// state its Tick would have seen, which keeps the substitution exact.
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

// Ticker is a hardware component advanced once per simulated cycle.
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

// Forecaster is the event-horizon protocol. A component implementing it
// promises: if NextEvent(now) returns h, then Tick at every cycle in
// [now, h) would change no externally visible state and no statistic —
// except time-linear accounting declared via Skipper — provided the
// component receives no new input before h. Since nothing ticks during
// a skip, no new input can appear, which makes the promise sound.
//
// The contract in detail:
//
//   - now is the next cycle the engine would execute. Return now (or
//     anything ≤ now) when the component may act immediately; return
//     Never when it cannot act again without external input (a new
//     message, a queue push, a shared gate flipping). Values below now
//     are treated as now, so stale-but-conservative forecasts are safe.
//   - The forecast must account for everything already buffered inside
//     the component: a queued message, an in-flight pipe item, a timer
//     such as a link busy-until or a config-done cycle.
//   - It must never be optimistic. Forecasting h when the component
//     would in fact act at some cycle < h silently corrupts the
//     simulation; forecasting too early only wastes a tick.
//   - The engine re-asks after every executed cycle, so a forecast only
//     needs to be valid until the next event anywhere in the machine —
//     reacting to another component's action is handled by that
//     component bounding the horizon.
//
// Fast-forwarding engages only when every registered Ticker implements
// Forecaster; a machine with one non-forecasting component simply runs
// cycle by cycle, which keeps the protocol incrementally adoptable.
type Forecaster interface {
	// NextEvent returns the earliest cycle ≥ now at which the
	// component's Tick could do anything beyond Skipper-declared
	// time-linear accounting, or Never.
	NextEvent(now Cycle) Cycle
}

// Skipper is implemented by Forecasters whose per-cycle effects during
// event-free cycles are time-linear (busy-cycle counters, stall
// attribution) and can therefore be applied in bulk. When the engine
// fast-forwards from cycle from to cycle to, it calls Skip(from, to) in
// registration order; the component must mutate its counters exactly as
// to-from individual Ticks over [from, to) would have.
type Skipper interface {
	Skip(from, to Cycle)
}

// reg is one registered component with its optional protocol facets
// resolved once, so the per-cycle loops never re-type-assert.
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
	// nForecast counts registered Forecasters; fast-forwarding engages
	// only when it covers every ticker.
	nForecast int
	// hot is the component whose immediate forecast ended the last
	// horizon scan; the next scan starts there.
	hot int
	now Cycle
	// MaxCycles aborts a run that fails to quiesce; a safety net for
	// model bugs (deadlocked credit loops and the like). Zero means the
	// DefaultMaxCycles limit.
	MaxCycles Cycle
	// FastForward opts the run into event-horizon fast-forwarding. It
	// has no effect unless every registered component implements
	// Forecaster. Results are byte-identical either way; only wall
	// time changes. Done predicates passed to Run must depend on
	// component state only, never on Now() directly, since skipped
	// cycles are not individually observed.
	FastForward bool
	// SkipIdle replaces the Tick of any component whose forecast is
	// beyond the current cycle with its (bulk-exact) one-cycle Skip,
	// inside executed cycles — the per-component analogue of
	// fast-forwarding, effective even when FastForward is off or
	// cannot engage. Byte-identical by the Forecaster contract.
	SkipIdle bool
	// ExecutedCycles and SkippedCycles meter fast-forwarding: cycles
	// individually ticked versus cycles jumped over. They never enter
	// simulation results — purely wall-time diagnostics.
	ExecutedCycles int64
	SkippedCycles  int64
}

// DefaultMaxCycles bounds runs whose Engine.MaxCycles is unset.
const DefaultMaxCycles Cycle = 2_000_000_000

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Register appends a component to the tick order. The name is used in
// deadlock diagnostics. If the component implements Idler it also
// participates in quiescence detection; if it implements Forecaster it
// participates in event-horizon fast-forwarding.
func (e *Engine) Register(name string, t Ticker) {
	r := reg{t: t}
	if f, ok := t.(Forecaster); ok {
		r.f = f
		e.nForecast++
	}
	if s, ok := t.(Skipper); ok {
		r.s = s
	}
	e.regs = append(e.regs, r)
	e.names = append(e.names, name)
	if id, ok := t.(Idler); ok {
		e.idlers = append(e.idlers, id)
		e.idlerNames = append(e.idlerNames, name)
	}
}

// Now returns the current cycle (the number of fully executed cycles).
func (e *Engine) Now() Cycle { return e.now }

// Step executes exactly one cycle. Under SkipIdle a component whose
// forecast is beyond now gets its bulk-exact one-cycle Skip instead of
// Tick.
func (e *Engine) Step() {
	for i := range e.regs {
		r := &e.regs[i]
		if e.SkipIdle && r.f != nil && r.f.NextEvent(e.now) > e.now {
			if r.s != nil {
				r.s.Skip(e.now, e.now+1)
			}
			continue
		}
		r.t.Tick(e.now)
	}
	e.now++
	e.ExecutedCycles++
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

// horizon returns the earliest cycle ≥ e.now at which any component may
// act, or Never. It returns as soon as any component reports an
// immediate event, and starts the scan at the component that did so
// last time: on busy stretches the same component acts cycle after
// cycle, so the scan usually ends after one forecast. Forecasts have no
// side effects and the answer is e.now or the minimum, so the order
// cannot change it.
func (e *Engine) horizon() Cycle {
	h := Never
	for k := range e.regs {
		i := e.hot + k
		if i >= len(e.regs) {
			i -= len(e.regs)
		}
		ev := e.regs[i].f.NextEvent(e.now)
		if ev <= e.now {
			e.hot = i
			return e.now
		}
		if ev < h {
			h = ev
		}
	}
	return h
}

// skipTo replays time-linear accounting over [e.now, h) and jumps to h.
func (e *Engine) skipTo(h Cycle) {
	for i := range e.regs {
		if s := e.regs[i].s; s != nil {
			s.Skip(e.now, h)
		}
	}
	e.SkippedCycles += int64(h - e.now)
	e.now = h
}

// Run executes cycles until done() returns true and all components are
// idle, returning the total executed cycles. done may be nil, in which
// case only quiescence terminates the run. Run returns an error if the
// cycle limit is exceeded, identifying the non-idle components, or, if
// every component is idle, saying that done() is what never held.
//
// When FastForward is set and every component forecasts, Run skips
// provably event-free stretches of cycles (see the package comment);
// cycle counts, statistics, and termination are byte-identical to a
// cycle-by-cycle run.
func (e *Engine) Run(done func() bool) (Cycle, error) {
	t0 := time.Now()
	c, err := e.run(done)
	mergeHostProf(&HostProf{
		Runs:           1,
		ExecutedCycles: e.ExecutedCycles,
		SkippedCycles:  e.SkippedCycles,
		TotalNS:        int64(time.Since(t0)),
	})
	return c, err
}

// ffEngaged reports whether fast-forwarding can run: opted in and every
// component forecasts.
func (e *Engine) ffEngaged() bool {
	return e.FastForward && e.nForecast == len(e.regs)
}

// run is the cycle loop behind Run.
func (e *Engine) run(done func() bool) (Cycle, error) {
	limit := e.MaxCycles
	if limit <= 0 {
		limit = DefaultMaxCycles
	}
	ff := e.ffEngaged()
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
		e.Step()
		if !ff {
			continue
		}
		h := e.horizon()
		if h <= e.now {
			continue
		}
		// The run may have completed on the cycle just executed; return
		// before skipping so no idle tail is fabricated (time-linear
		// counters would otherwise run past the true finish cycle).
		if (done == nil || done()) && e.quiescent() {
			return e.now, nil
		}
		if h > limit {
			// Deadlock (or a horizon legitimately past the limit):
			// jump to the limit so the next iteration reports it, with
			// skipped-cycle accounting intact.
			h = limit
		}
		if h > e.now {
			e.skipTo(h)
		}
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
