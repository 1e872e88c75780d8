package core

import (
	"taskstream/internal/mem"
	"taskstream/internal/obs"
	"taskstream/internal/sim"
	"taskstream/internal/stream"
)

// laneState is the task-execution FSM state of a lane.
type laneState uint8

const (
	laneIdle laneState = iota
	laneConfig
	laneRunning
)

// prodEvt is an output-port production maturing after pipeline latency.
type prodEvt struct {
	port int
	n    int
}

// spawnEvt is a spawn announcement maturing after pipeline latency.
type spawnEvt struct {
	task Task
}

// completeEvt notifies the coordinator that a lane finished a task.
type completeEvt struct {
	lane  int
	phase int
	hint  int64
}

// Lane is one compute lane: a stream-fed fabric executing one task at a
// time from its hardware task queue.
type Lane struct {
	id   int
	node int // cached NoC node id (Topology.LaneNode is O(nodes·channels))
	m    *Machine
	eng  *stream.Engine
	spad *mem.Spad

	queue *sim.Queue[*resolved]
	cur   *resolved
	state laneState

	configDone sim.Cycle
	curType    int
	firing     int
	nextFire   sim.Cycle
	prod       *sim.Pipe[prodEvt]
	spawnPipe  *sim.Pipe[spawnEvt]
	reserved   []int // write-buffer space reserved by in-flight firings
	// need[p] and give[p] are the elements the current firing consumes
	// from input port p and produces on output port p (0 for an unused
	// port): portDelta, computed once per firing by setDeltas rather
	// than on every fireBlock.
	need []int
	give []int

	// Stats.
	BusyCycles   int64
	FireCycles   int64
	TasksRun     int64
	ConfigStalls int64
	// StallIn attributes blocked firing attempts to the input source
	// kind that gated them (indexed by stream.SrcKind); StallOut counts
	// output-space stalls.
	StallIn  [stream.NumSrcKinds]int64
	StallOut int64

	// Observability span state: the lane has been in obsCause (running
	// obsName) since cycle obsSince. Maintained only when a sink is
	// attached; see observe.
	obsCause obs.Cause
	obsName  string
	obsSince sim.Cycle
}

func newLane(id int, m *Machine) *Lane {
	spad := mem.NewSpad(m.cfg.Spad)
	l := &Lane{
		id:        id,
		node:      m.topo.LaneNode(id),
		m:         m,
		spad:      spad,
		queue:     sim.NewQueue[*resolved](m.cfg.Task.QueueDepth),
		curType:   -1,
		prod:      sim.NewPipe[prodEvt](0),
		spawnPipe: sim.NewPipe[spawnEvt](0),
		reserved:  make([]int, m.cfg.Fabric.NumPorts),
		need:      make([]int, m.cfg.Fabric.NumPorts),
		give:      make([]int, m.cfg.Fabric.NumPorts),
	}
	l.eng = stream.NewEngine(id, m.cfg, m.topo, m.mesh, spad)
	return l
}

// QueueSpace returns free task-queue slots.
func (l *Lane) QueueSpace() int { return l.queue.Cap() - l.queue.Len() }

// enqueue accepts a dispatched task; the coordinator has verified space.
func (l *Lane) enqueue(r *resolved) {
	if !l.queue.Push(r) {
		panic("core: lane queue overflow (coordinator must check QueueSpace)")
	}
}

// Tick advances the lane one cycle.
func (l *Lane) Tick(now sim.Cycle) {
	// Deliver NoC messages to the stream engine. SetCycle first so the
	// engine's message-handler events carry this cycle's stamp.
	l.eng.SetCycle(now)
	for {
		msg, ok := l.m.mesh.Pop(l.node)
		if !ok {
			break
		}
		l.eng.OnMessage(msg)
	}
	l.spad.Tick(now)
	l.eng.Tick(now)

	if l.state != laneIdle || !l.queue.Empty() {
		l.BusyCycles++
	}

	// Arm a read prefetch for the next queued task while the current
	// one runs (the task queue's argument-prefetch datapath).
	if l.cur != nil && !l.m.cfg.Task.DisablePrefetch && !l.eng.HasAhead() {
		if next, ok := l.queue.Peek(); ok {
			l.eng.SetupAhead(next.inSet)
		}
	}

	switch l.state {
	case laneIdle:
		if r, ok := l.queue.Pop(); ok {
			l.cur = r
			l.startTask(now)
		}
	case laneConfig:
		if now >= l.configDone {
			l.state = laneRunning
		}
	case laneRunning:
		l.run(now)
	}
	if l.m.opts.Obs != nil {
		l.observe(now)
	}
}

// observe classifies what the lane spent this cycle doing and extends
// the current state span, closing it into an event when the
// classification changes. Runs after the FSM so a task completed this
// cycle already reads as idle.
func (l *Lane) observe(now sim.Cycle) {
	cause, name := l.classify(now)
	if cause == l.obsCause && name == l.obsName {
		return
	}
	l.obsEmit(now)
	l.obsCause, l.obsName, l.obsSince = cause, name, now
}

// obsEmit closes the current state span at end, if it is non-empty.
func (l *Lane) obsEmit(end sim.Cycle) {
	if end > l.obsSince {
		l.m.opts.Obs.Emit(obs.Event{Cycle: int64(l.obsSince), Dur: int64(end - l.obsSince),
			Kind: obs.KindLaneState, Cause: l.obsCause, Comp: int32(l.id), Name: l.obsName})
	}
}

// taskEvent emits a lifecycle event for task r on this lane.
func (l *Lane) taskEvent(now sim.Cycle, kind obs.Kind, r *resolved) {
	if s := l.m.opts.Obs; s != nil {
		s.Emit(obs.Event{Cycle: int64(now), Kind: kind, Comp: int32(l.id),
			A: int64(r.task.Key), B: int64(r.task.Phase), Name: l.m.prog.Types[r.typeID].Name})
	}
}

// obsFlush closes the lane's final state span when the run ends.
func (l *Lane) obsFlush(end sim.Cycle) {
	l.obsEmit(end)
	l.obsSince = end
}

// classify attributes the lane's current cycle to a cause: the stall
// taxonomy when a due firing is blocked, run/config/drain through the
// FSM, and — when idle — the phase-barrier wait whenever the current
// phase has no pending tasks but still-active ones elsewhere.
func (l *Lane) classify(now sim.Cycle) (obs.Cause, string) {
	switch l.state {
	case laneConfig:
		return obs.CauseConfig, l.m.prog.Types[l.cur.typeID].Name
	case laneRunning:
		r := l.cur
		name := l.m.prog.Types[r.typeID].Name
		if l.firing < r.firings {
			if now < l.nextFire {
				return obs.CauseRun, name // pipeline initiating at its II
			}
			in, out, ok := l.fireBlock(r)
			switch {
			case ok:
				return obs.CauseRun, name
			case out:
				return obs.CauseStallOut, name
			default:
				return stallCause(in), name
			}
		}
		return obs.CauseDrain, name
	}
	if l.queue.Empty() {
		c := l.m.coord
		if len(c.pending[c.phase]) == 0 && c.activeCount[c.phase] > 0 {
			return obs.CauseBarrier, ""
		}
	}
	return obs.CauseIdle, ""
}

// stallCause maps a blocking input source kind onto the observability
// stall taxonomy.
func stallCause(k stream.SrcKind) obs.Cause {
	switch k {
	case stream.SrcSpad:
		return obs.CauseStallSpad
	case stream.SrcForward:
		return obs.CauseStallFwd
	case stream.SrcMulticast:
		return obs.CauseStallMcast
	default:
		return obs.CauseStallDRAM
	}
}

// startTask programs the streams and begins configuration if needed.
func (l *Lane) startTask(now sim.Cycle) {
	r := l.cur
	if l.eng.HasAhead() {
		// The queue is FIFO, so an armed prefetch always belongs to
		// the task just popped.
		l.eng.Promote()
	} else {
		for p := 0; p < l.m.cfg.Fabric.NumPorts; p++ {
			l.eng.SetupRead(p, r.inSet[p])
		}
	}
	for p := 0; p < l.m.cfg.Fabric.NumPorts; p++ {
		l.eng.SetupWrite(p, r.outSet[p])
		l.reserved[p] = 0
	}
	l.firing = 0
	l.setDeltas(r)
	l.nextFire = now
	if r.startGate != nil {
		*r.startGate = true // unblock paired producers' forwarding
	}
	l.taskEvent(now, obs.KindTaskStart, r)
	if r.typeID != l.curType {
		l.ConfigStalls++
		l.state = laneConfig
		l.configDone = now + sim.Cycle(l.m.cfg.Fabric.ConfigCycles)
		l.curType = r.typeID
		return
	}
	l.state = laneRunning
}

// run advances the firing pipeline and completion detection.
func (l *Lane) run(now sim.Cycle) {
	r := l.cur
	// Mature productions and spawns.
	for {
		ev, ok := l.prod.Recv(now)
		if !ok {
			break
		}
		l.eng.Produce(ev.port, ev.n)
		l.reserved[ev.port] -= ev.n
	}
	for {
		ev, ok := l.spawnPipe.Recv(now)
		if !ok {
			break
		}
		l.m.coord.spawn(ev.task)
	}

	// Attempt one firing.
	if l.firing < r.firings && now >= l.nextFire {
		if l.canFire(r) {
			l.fire(now, r)
		}
	}

	// Completion: all firings issued, pipeline drained, streams done.
	if l.firing == r.firings && l.prod.Empty() && l.spawnPipe.Empty() && l.eng.Done() {
		l.m.coord.complete(completeEvt{lane: l.id, phase: r.task.Phase, hint: r.hint})
		l.taskEvent(now, obs.KindTaskComplete, r)
		l.TasksRun++
		l.cur = nil
		l.state = laneIdle
	}
}

// setDeltas caches the per-port element counts of firing l.firing of
// r (every resolved task has one set entry per fabric port).
func (l *Lane) setDeltas(r *resolved) {
	f := l.firing
	for p := range l.need {
		l.need[p], l.give[p] = 0, 0
		if r.inSet[p].Kind != stream.SrcNone {
			l.need[p] = portDelta(r.inN[p], f, r.firings)
		}
		if r.outSet[p].Kind != stream.DstNone {
			l.give[p] = portDelta(r.outN[p], f, r.firings)
		}
	}
}

// fireBlock checks element availability and output space for the next
// firing without touching statistics. ok reports whether the firing can
// proceed; when it cannot, exactly one of out (output-space stall) or
// in (the first blocking input port's source kind) identifies the
// blocker, matching the attribution order canFire has always used.
func (l *Lane) fireBlock(r *resolved) (in stream.SrcKind, out, ok bool) {
	for p, need := range l.need {
		if need > 0 && l.eng.Avail(p) < need {
			return r.inSet[p].Kind, false, false
		}
	}
	for p, k := range l.give {
		if k > 0 && !l.eng.OutSpace(p, l.reserved[p]+k) {
			return 0, true, false
		}
	}
	return 0, false, true
}

// canFire checks the next firing and attributes a failed attempt to the
// blocking port.
func (l *Lane) canFire(r *resolved) bool {
	in, out, ok := l.fireBlock(r)
	if !ok {
		if out {
			l.StallOut++
		} else {
			l.StallIn[in]++
		}
	}
	return ok
}

// fire consumes one firing's inputs and schedules its outputs and
// spawns after the pipeline latency.
func (l *Lane) fire(now sim.Cycle, r *resolved) {
	f := l.firing
	lat := sim.Cycle(r.mapping.Latency)
	for p, need := range l.need {
		if need > 0 {
			l.eng.Consume(p, need)
		}
	}
	for p, k := range l.give {
		if k > 0 {
			l.reserved[p] += k
			l.prod.SendAt(now+lat, prodEvt{port: p, n: k})
		}
	}
	for _, sp := range r.spawns {
		if sp.AtFiring == f {
			l.spawnPipe.SendAt(now+lat, spawnEvt{task: sp.Task})
		}
	}
	l.firing++
	l.setDeltas(r)
	l.nextFire = now + sim.Cycle(r.mapping.II)
	l.FireCycles++
}

// Idle reports lane quiescence for the simulation engine.
func (l *Lane) Idle() bool {
	return l.state == laneIdle && l.queue.Empty() && l.spad.Idle() &&
		l.prod.Empty() && l.spawnPipe.Empty()
}

// NextEvent reports when the lane can next act absent new external
// input: immediately when NoC deliveries wait, the scratchpad or stream
// engine has issuable work, a queued task can be popped or prefetched,
// or an unstalled firing is due; at a timer otherwise (config done,
// production/spawn maturity, deferred firing). A lane stalled on
// unavailable inputs or output space contributes no event — the
// component that will unblock it (mesh, DRAM, scratchpad, consumer
// lane) bounds the horizon, and the per-cycle stall attribution those
// skipped retry cycles would have recorded is replayed by Skip.
func (l *Lane) NextEvent(now sim.Cycle) sim.Cycle {
	if l.m.mesh.Deliverable(l.node) {
		return now
	}
	ev := l.spad.NextEvent(now)
	if ev <= now {
		return now
	}
	if e := l.eng.NextEvent(now); e <= now {
		return now
	} else if e < ev {
		ev = e
	}
	if at := l.prod.NextAt(); at <= now {
		return now
	} else if at < ev {
		ev = at
	}
	if at := l.spawnPipe.NextAt(); at <= now {
		return now
	} else if at < ev {
		ev = at
	}
	// The argument-prefetch datapath arms on the next tick whenever a
	// task is running and another waits unprefetched.
	if l.cur != nil && !l.m.cfg.Task.DisablePrefetch && !l.eng.HasAhead() && !l.queue.Empty() {
		return now
	}
	switch l.state {
	case laneIdle:
		if !l.queue.Empty() {
			return now
		}
	case laneConfig:
		if l.configDone <= now {
			return now
		}
		if l.configDone < ev {
			ev = l.configDone
		}
	case laneRunning:
		if l.firing < l.cur.firings {
			if _, _, ok := l.fireBlock(l.cur); ok {
				if l.nextFire <= now {
					return now
				}
				if l.nextFire < ev {
					ev = l.nextFire
				}
			}
		}
	}
	return ev
}

// Skip replays the per-cycle accounting of skipped cycles [from, to):
// busy-cycle counting whenever the lane holds work, and stall
// attribution for every due-but-blocked firing attempt. The blocking
// port cannot change during a skip (no component ticks, so no input
// arrives), which is what makes the bulk update exact.
func (l *Lane) Skip(from, to sim.Cycle) {
	if l.state != laneIdle || !l.queue.Empty() {
		l.BusyCycles += int64(to - from)
	}
	if l.state == laneRunning && l.firing < l.cur.firings {
		start := l.nextFire
		if start < from {
			start = from
		}
		if start >= to {
			return
		}
		in, out, ok := l.fireBlock(l.cur)
		if ok {
			// The forecast returns nextFire when the firing can
			// proceed, so the engine never skips past it.
			panic("core: lane skipped over a ready firing")
		}
		n := int64(to - start)
		if out {
			l.StallOut += n
		} else {
			l.StallIn[in] += n
		}
	}
}
