// Package obs is the machine-wide observability layer: a generalized
// cycle-stamped event stream every hardware model emits into, a
// per-component metrics registry folding those events into utilization
// and stall-breakdown counters, per-task residency spans, and
// exporters (Chrome trace-event / Perfetto JSON, per-lane
// stall-attribution text, per-lane occupancy timelines) over the
// collected stream.
//
// A *Sink travels through the machine, every emit site calls Emit
// unconditionally, and a nil sink makes the call a single predictable
// branch. The sink folds task dispatch, start and completion events
// into per-task residency spans as they arrive (Spans, Timeline), so
// the spans, like the metrics, survive the buffer limit. Observation is
// strictly passive — emitting events never alters simulation behavior —
// and the machine ticks every component every cycle while a sink is
// attached so per-cycle attribution is observed rather than
// synthesized, which the kernel's byte-identity contract (DESIGN.md
// §11) guarantees changes no cycle count or statistic.
package obs

// Kind is the typed class of an observed event. The component class an
// event belongs to (lane, stream engine, NoC link, DRAM channel, ...)
// is implied by the kind; Comp indexes the instance within that class.
type Kind uint8

// Event kinds, one per instrumented decision or activity.
const (
	// KindDispatch is a coordinator dispatch decision. Comp is the
	// chosen lane, A the task's effective work-hint value, B the
	// bitmask of losing candidate lanes that were considered (lanes
	// with queue space, minus the winner), Name the task type.
	KindDispatch Kind = iota
	// KindLaneState is a lane-state span: the lane spent cycles
	// [Cycle, Cycle+Dur) in the state named by Cause. Comp is the
	// lane, Name the resident task type (empty outside a task).
	KindLaneState
	// KindSpanIssue marks a stream engine injecting the request for
	// one DRAM line span. Comp is the lane, A the line address, B the
	// element count the span covers.
	KindSpanIssue
	// KindSpanComplete marks a stream-engine line span fully arrived.
	// Comp is the lane, A the span sequence number, B the elements
	// newly deliverable to the fabric.
	KindSpanComplete
	// KindMcastHit is a multicast-table join that found an open group.
	// Comp is the joining lane's NoC node, A the group id, B the
	// unicast line fetches the hit avoided.
	KindMcastHit
	// KindMcastMiss is a multicast-table join that opened a new group.
	// Comp is the lane's NoC node, A the new group id, B its line
	// count.
	KindMcastMiss
	// KindMcastForward is one multicast line response leaving a memory
	// controller for every member lane. Comp is the DRAM channel, A
	// the group id, B the line sequence number.
	KindMcastForward
	// KindNoCHop is one link transmission: the link was occupied for
	// [Cycle, Cycle+Dur) serializing a message. Comp is the link
	// index (see Sink.LinkLabels), A the payload bytes, B the message
	// kind.
	KindNoCHop
	// KindDRAM is one channel service: the data bus was occupied for
	// [Cycle, Cycle+Dur). Comp is the channel, A the line address, B
	// 1 for a write.
	KindDRAM
	// KindTaskStart is a lane beginning the next task from its queue.
	// Comp is the lane, A the task key, B the task's phase, Name the
	// task type.
	KindTaskStart
	// KindTaskComplete is a lane finishing its task (streams drained).
	// Fields as for KindTaskStart.
	KindTaskComplete
	// NumKinds counts the event kinds.
	NumKinds
)

// String names the kind for summaries and exporter track labels.
func (k Kind) String() string {
	switch k {
	case KindDispatch:
		return "dispatch"
	case KindLaneState:
		return "lane-state"
	case KindSpanIssue:
		return "span-issue"
	case KindSpanComplete:
		return "span-complete"
	case KindMcastHit:
		return "mcast-hit"
	case KindMcastMiss:
		return "mcast-miss"
	case KindMcastForward:
		return "mcast-forward"
	case KindNoCHop:
		return "noc-hop"
	case KindDRAM:
		return "dram"
	case KindTaskStart:
		return "task-start"
	case KindTaskComplete:
		return "task-complete"
	default:
		return "unknown"
	}
}

// Cause classifies what a lane spent a state span doing — the stall
// attribution taxonomy. Stall causes name the resource whose
// unavailability gated the next firing.
type Cause uint8

// Lane-state causes.
const (
	// CauseIdle: no task resident and none queued.
	CauseIdle Cause = iota
	// CauseRun: a firing issued this cycle or the pipeline is
	// initiating at its II.
	CauseRun
	// CauseConfig: the fabric is being reconfigured for a new task
	// type.
	CauseConfig
	// CauseStallDRAM: the next firing waits on a DRAM-sourced stream.
	CauseStallDRAM
	// CauseStallSpad: waits on a scratchpad-sourced stream.
	CauseStallSpad
	// CauseStallFwd: waits on a forwarded dependence (producer has not
	// shipped enough elements yet).
	CauseStallFwd
	// CauseStallMcast: waits on a multicast group line.
	CauseStallMcast
	// CauseStallOut: waits on output write-buffer space.
	CauseStallOut
	// CauseDrain: all firings issued; output streams draining.
	CauseDrain
	// CauseBarrier: idle with the current phase's queue empty but
	// tasks still active — the phase-barrier wait.
	CauseBarrier
	// NumCauses counts the causes; dense per-cause arrays use it.
	NumCauses
)

// String names the cause for summaries and exporter span labels.
func (c Cause) String() string {
	switch c {
	case CauseIdle:
		return "idle"
	case CauseRun:
		return "run"
	case CauseConfig:
		return "config"
	case CauseStallDRAM:
		return "stall-dram"
	case CauseStallSpad:
		return "stall-spad"
	case CauseStallFwd:
		return "stall-fwd"
	case CauseStallMcast:
		return "stall-mcast"
	case CauseStallOut:
		return "stall-out"
	case CauseDrain:
		return "drain"
	case CauseBarrier:
		return "barrier"
	default:
		return "unknown"
	}
}

// Event is one cycle-stamped observation. Field semantics are
// kind-specific; see the Kind constants.
type Event struct {
	// Cycle is the event's (or span's start) cycle.
	Cycle int64
	// Dur is the span length in cycles for span-shaped kinds
	// (KindLaneState, KindNoCHop, KindDRAM); 0 for instants.
	Dur int64
	// Kind is the event class.
	Kind Kind
	// Cause attributes KindLaneState spans.
	Cause Cause
	// Comp is the emitting component instance within the kind's class.
	Comp int32
	// A, B are kind-specific arguments.
	A, B int64
	// Name carries the task-type name where one applies.
	Name string
}

// chunkEvents is the capacity of one event-buffer chunk. The buffer is
// a list of chunks, so Emit appends into the last one and opens a new
// one when it fills, and never regrows or copies the events it holds.
const chunkEvents = 4096

// Sink accumulates events and folds them into metrics and task spans
// as they arrive. A nil *Sink ignores all emissions at the cost of one
// branch, so every hardware model emits unconditionally.
type Sink struct {
	chunks  [][]Event // emission order; every chunk but the last is full
	n       int       // buffered events
	limit   int
	dropped int64
	metrics Metrics
	tasks   taskFold

	// Topology metadata the exporters need to label tracks; the
	// machine fills these while wiring the sink through its models.
	Lanes      int
	Channels   int
	LinkLabels []string
}

// New returns a sink bounded to limit buffered events (0 = unbounded).
// Metrics and task spans keep folding past the limit; only the raw
// event buffer stops growing, with the overflow counted in Dropped.
func New(limit int) *Sink {
	return &Sink{limit: limit, metrics: newMetrics()}
}

// Emit records one event; nil-safe and limit-respecting.
func (s *Sink) Emit(ev Event) {
	if s == nil {
		return
	}
	s.metrics.fold(ev)
	switch ev.Kind {
	case KindDispatch, KindTaskStart, KindTaskComplete:
		s.tasks.fold(ev)
	}
	if s.limit > 0 && s.n >= s.limit {
		s.dropped++
		return
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		// No chunk outgrows what the limit still admits, so a sink
		// limited to a few events allocates only that few.
		size := chunkEvents
		if s.limit > 0 {
			size = min(size, s.limit-s.n)
		}
		s.chunks = append(s.chunks, make([]Event, 0, size))
		last++
	}
	s.chunks[last] = append(s.chunks[last], ev)
	s.n++
}

// Events returns a copy of the buffered events in emission order.
func (s *Sink) Events() []Event {
	if s == nil || s.n == 0 {
		return nil
	}
	out := make([]Event, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// Len returns the buffered event count.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Dropped returns how many events exceeded the buffer limit (their
// metrics were still folded).
func (s *Sink) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped
}

// Metrics returns the per-component registry folded from every emitted
// event (including ones the buffer dropped). Nil-safe: a nil sink
// returns an empty registry.
func (s *Sink) Metrics() *Metrics {
	if s == nil {
		m := newMetrics()
		return &m
	}
	return &s.metrics
}
