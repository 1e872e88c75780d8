package core

import (
	"fmt"
	"slices"
	"strings"

	"taskstream/internal/obs"
	"taskstream/internal/sim"
)

// HintMode controls the fidelity of work hints (experiment E12).
type HintMode uint8

const (
	// HintExact uses the task's annotation (or the default estimate).
	HintExact HintMode = iota
	// HintNone treats every task as unit work (work-oblivious).
	HintNone
	// HintNoisy perturbs hints by a deterministic per-task factor in
	// [1/4, 4], modeling inaccurate programmer estimates.
	HintNoisy
)

// ctlLatency models the coordinator's control-network round trip.
const ctlLatency sim.Cycle = 4

// coordinator is the TaskStream hardware shared by every dispatch
// policy: global task queues, phase tracking, the per-lane
// outstanding-work load model, forward-group formation, and control
// pipes. The policy itself — which task goes to which lane — is the
// pluggable Scheduler (scheduler.go, DESIGN.md §17).
type coordinator struct {
	m     *Machine
	sched Scheduler
	state SchedState

	// pending[phase] is the FIFO of undispatched tasks per phase;
	// activeCount[phase] counts dispatched-but-incomplete tasks.
	pending     [][]Task
	activeCount []int
	phase       int

	// laneWork is the outstanding work estimate per lane.
	laneWork []int64

	// consumersByTag indexes pending tasks that consume a forward tag.
	consumersByTag map[uint64]int // tag → phase (lookup hint)

	// completions and spawns arrive through control pipes.
	completions   *sim.Pipe[completeEvt]
	spawnsPipe    *sim.Pipe[Task]
	spawnInFlight int

	// Stats.
	Dispatched int64
	Spawned    int64
	FwdPairs   int64
}

func newCoordinator(m *Machine, policy Policy) *coordinator {
	sched, err := newScheduler(policy)
	if err != nil {
		panic(err) // NewMachine validates the policy first
	}
	c := &coordinator{
		m:              m,
		sched:          sched,
		pending:        make([][]Task, m.prog.NumPhases),
		activeCount:    make([]int, m.prog.NumPhases),
		laneWork:       make([]int64, m.cfg.Lanes),
		consumersByTag: make(map[uint64]int),
		completions:    sim.NewPipe[completeEvt](ctlLatency),
		spawnsPipe:     sim.NewPipe[Task](ctlLatency),
	}
	c.state = SchedState{c: c}
	for _, t := range m.prog.Tasks {
		c.accept(t)
	}
	return c
}

// accept registers a task into its phase queue.
func (c *coordinator) accept(t Task) {
	c.pending[t.Phase] = append(c.pending[t.Phase], t)
	if tag := t.ConsumesTag(); tag != 0 {
		c.consumersByTag[tag] = t.Phase
	}
}

// spawn is called by lanes announcing a child task (already delayed by
// pipeline latency; the control-network latency is added here).
func (c *coordinator) spawn(t Task) {
	c.spawnInFlight++
	c.spawnsPipe.Send(c.m.now, t)
}

// complete is called by lanes when a task finishes.
func (c *coordinator) complete(ev completeEvt) {
	c.completions.Send(c.m.now, ev)
}

// AllDone reports whether every task in every phase has completed and
// no control traffic is in flight.
func (c *coordinator) AllDone() bool {
	if c.spawnInFlight > 0 || !c.completions.Empty() {
		return false
	}
	for p := range c.pending {
		if len(c.pending[p]) > 0 || c.activeCount[p] > 0 {
			return false
		}
	}
	return c.m.mcast.drained()
}

// backlog describes the tasks still pending or active, by phase — the
// coordinator's half of a run's cycle-limit error, which names what
// kept its done predicate false.
func (c *coordinator) backlog() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coordinator at phase %d", c.phase)
	for p := range c.pending {
		if n, a := len(c.pending[p]), c.activeCount[p]; n > 0 || a > 0 {
			fmt.Fprintf(&b, "; phase %d: %d pending, %d active", p, n, a)
		}
	}
	if c.spawnInFlight > 0 {
		fmt.Fprintf(&b, "; %d spawns in flight", c.spawnInFlight)
	}
	return b.String()
}

// NextEvent reports when the coordinator can next act: at control-pipe
// maturity (completions, spawns), at the multicast manager's next
// deadline, or immediately when the current phase has pending tasks
// and some lane has queue space.
// Pending tasks with every lane queue full contribute no event:
// dispatch (including forward-group formation, which also needs free
// lanes) cannot progress until a lane drains, and lanes with queued
// tasks always forecast their own activity.
func (c *coordinator) NextEvent(now sim.Cycle) sim.Cycle {
	ev := c.completions.NextAt()
	if ev <= now {
		return now
	}
	if at := c.spawnsPipe.NextAt(); at <= now {
		return now
	} else if at < ev {
		ev = at
	}
	if mc := c.m.mcast.nextEvent(now); mc <= now {
		return now
	} else if mc < ev {
		ev = mc
	}
	if len(c.pending[c.phase]) > 0 {
		for i := 0; i < c.m.cfg.Lanes; i++ {
			if c.m.lanes[i].QueueSpace() > 0 {
				return now
			}
		}
	}
	return ev
}

// Tick drains control pipes, advances phases, runs the multicast
// manager, and dispatches under the per-cycle budget.
func (c *coordinator) Tick(now sim.Cycle) {
	for {
		ev, ok := c.completions.Recv(now)
		if !ok {
			break
		}
		c.laneWork[ev.lane] -= ev.hint
		c.activeCount[ev.phase]--
		if c.activeCount[ev.phase] < 0 {
			panic("core: completion underflow")
		}
	}
	for {
		t, ok := c.spawnsPipe.Recv(now)
		if !ok {
			break
		}
		c.spawnInFlight--
		if err := c.m.prog.validateTask(&t); err != nil {
			panic(fmt.Sprintf("core: invalid spawned task: %v", err))
		}
		c.accept(t)
		c.Spawned++
	}

	// Advance past completed phases. Dynamic mode also requires no
	// in-flight spawns (they may target the next phase about to open;
	// the ≤4-cycle conservatism is negligible).
	for c.phase < len(c.pending)-1 &&
		len(c.pending[c.phase]) == 0 && c.activeCount[c.phase] == 0 &&
		c.spawnInFlight == 0 {
		c.phase++
		c.sched.PhaseStart(&c.state, c.phase)
	}

	c.m.mcast.tick(now, 8, c.m.submitMcast)

	budget := c.m.cfg.Task.DispatchPerCycle
	for budget > 0 {
		if !c.dispatchOne(now) {
			break
		}
		budget--
	}
}

// dispatchOne dispatches the next eligible task through the scheduler,
// reporting success.
func (c *coordinator) dispatchOne(now sim.Cycle) bool {
	if len(c.pending[c.phase]) == 0 {
		return false
	}
	return c.sched.Dispatch(&c.state, now)
}

// tryForwardGroup attempts to co-dispatch the forward group seeded by
// the producer at the head of the current phase queue: the consumer
// of its tag, and any other pending producers that consumer requires.
// choose supplies the policy's lane selection: given the group
// members' effective work hints (producers in order, consumer last)
// it returns that many distinct lanes with queue space, aligned to the
// weights, or nil to refuse. Reports whether the group dispatched.
func (c *coordinator) tryForwardGroup(choose func(weights []int64) []int) bool {
	t := c.pending[c.phase][0]
	tag := t.ProducesTag()
	if tag == 0 {
		return false
	}
	ph, ok := c.consumersByTag[tag]
	if !ok {
		return false
	}
	ci := c.findPending(ph, func(x *Task) bool { return x.ConsumesTag() == tag })
	if ci < 0 {
		return false
	}
	consumer := c.pending[ph][ci]
	// Collect every producer the consumer still needs. The seed task t
	// is one of them; others must be pending in the current phase.
	type pick struct {
		phase, idx int
	}
	producers := []Task{t}
	removals := []pick{{c.phase, 0}, {ph, ci}}
	fwdTags := map[uint64]bool{tag: true}
	for _, in := range consumer.Ins {
		if in.Kind != ArgForwardIn || in.Tag == tag {
			continue
		}
		if _, have := c.m.tagData[in.Tag]; have {
			continue // producer already ran; memory fallback serves it
		}
		pj := c.findPending(c.phase, func(x *Task) bool { return x.ProducesTag() == in.Tag })
		if pj < 0 {
			return false // producer not available: cannot form the group
		}
		producers = append(producers, c.pending[c.phase][pj])
		removals = append(removals, pick{c.phase, pj})
		fwdTags[in.Tag] = true
	}
	weights := make([]int64, len(producers)+1)
	for i, p := range producers {
		weights[i] = c.m.effectiveHint(&p)
	}
	weights[len(producers)] = c.m.effectiveHint(&consumer)
	lanes := choose(weights)
	if lanes == nil {
		return false
	}
	// Remove group members from pending, higher indices first so that
	// removals within the same phase queue do not shift one another
	// (removals in different phases are independent).
	for i := 1; i < len(removals); i++ {
		for j := i; j > 0 && removals[j-1].idx < removals[j].idx; j-- {
			removals[j-1], removals[j] = removals[j], removals[j-1]
		}
	}
	for _, rm := range removals {
		c.removePending(rm.phase, rm.idx)
	}
	delete(c.consumersByTag, tag)

	gate := new(bool)
	resolvedProds := make([]*resolved, len(producers))
	for i, p := range producers {
		r, err := c.m.resolve(p, lanes[i], resolveOpts{fwdOutTag: p.ProducesTag(), gate: gate})
		if err != nil {
			panic(err)
		}
		resolvedProds[i] = r
	}
	clane := lanes[len(producers)]
	cr, err := c.m.resolve(consumer, clane, resolveOpts{fwdInTags: fwdTags, gate: gate})
	if err != nil {
		panic(err)
	}
	// Patch each producer's forward destination to the consumer's port.
	for i, p := range producers {
		ptag := p.ProducesTag()
		cport := -1
		for cp, in := range consumer.Ins {
			if in.Kind == ArgForwardIn && in.Tag == ptag {
				cport = cp
			}
		}
		if cport < 0 {
			panic("core: forward group consumer lost its port")
		}
		for op := range resolvedProds[i].outSet {
			if resolvedProds[i].outSet[op].ConsumerLane == -1 {
				resolvedProds[i].outSet[op].ConsumerLane = clane
				resolvedProds[i].outSet[op].ConsumerPort = cport
			}
		}
		c.send(resolvedProds[i], lanes[i])
	}
	c.send(cr, clane)
	c.FwdPairs += int64(len(producers))
	return true
}

// findPending returns the index of the first task in phase ph matching
// pred, or -1.
func (c *coordinator) findPending(ph int, pred func(*Task) bool) int {
	for i := range c.pending[ph] {
		if pred(&c.pending[ph][i]) {
			return i
		}
	}
	return -1
}

// removePending drops the i-th task of phase ph's queue in place
// (DESIGN.md §17): the queue keeps its FIFO order and never
// reallocates on removal.
func (c *coordinator) removePending(ph, i int) {
	c.pending[ph] = removeAt(c.pending[ph], i)
}

// removeAt removes q[i], keeping the order of the rest, without
// allocating. Index 0, the dynamic policy's queue head, zeroes the
// slot and reslices past it in O(1); any other index shifts the tail
// down one slot and zeroes the vacated last slot. Zeroing keeps the
// backing array from pinning a removed element's slices.
func removeAt[T any](q []T, i int) []T {
	if i == 0 {
		var zero T
		q[0] = zero
		return q[1:]
	}
	return slices.Delete(q, i, i+1)
}

// send hands a resolved task to a lane and books the accounting.
func (c *coordinator) send(r *resolved, lane int) {
	if s := c.m.opts.Obs; s != nil {
		// Losing candidates: every other lane that also had queue space
		// when the decision was made (computed before enqueue mutates
		// occupancy). Lanes past bit 62 are left out of the mask.
		var losing int64
		for i := 0; i < c.m.cfg.Lanes && i < 63; i++ {
			if i != lane && c.m.lanes[i].QueueSpace() > 0 {
				losing |= 1 << uint(i)
			}
		}
		s.Emit(obs.Event{Cycle: int64(c.m.now), Kind: obs.KindDispatch,
			Comp: int32(lane), A: r.hint, B: losing,
			Name: c.m.prog.Types[r.typeID].Name})
	}
	c.m.lanes[lane].enqueue(r)
	c.laneWork[lane] += r.hint
	c.activeCount[r.task.Phase]++
	c.Dispatched++
}
