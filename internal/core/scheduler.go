package core

import (
	"fmt"
	"sort"
	"strings"
)

// Policy selects how the coordinator distributes tasks over lanes
// (DESIGN.md §17). The policy participates in Options.CacheKey, so
// runs under distinct policies never share a memoized result.
type Policy uint8

const (
	// PolicyDynamic is the TaskStream coordinator: run-time dispatch,
	// work-aware when the config enables it, round-robin otherwise.
	PolicyDynamic Policy = iota
	// PolicyStatic is the equivalent static-parallel design: tasks are
	// block-partitioned over lanes before each phase begins and strict
	// phase barriers apply.
	PolicyStatic
	// PolicyPipeline is the dynamic policy with consumer-anchored
	// forward-group placement: the group's consumer takes the
	// least-loaded lane and its producers, heaviest work hint first,
	// the next least-loaded ones (weightedLanes).
	PolicyPipeline
	// NumPolicies counts the registered policies.
	NumPolicies
)

// policyNames holds the canonical CLI/wire spelling of each policy.
var policyNames = [NumPolicies]string{"dynamic", "static", "pipeline"}

// String returns the policy's canonical name.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// PolicyNames returns the canonical names in enum order, for usage
// strings and sweeps.
func PolicyNames() []string {
	return append([]string(nil), policyNames[:]...)
}

// ParsePolicy resolves a canonical policy name. Unknown names error
// with the full valid set so CLIs can surface it verbatim.
func ParsePolicy(name string) (Policy, error) {
	for i, n := range policyNames {
		if n == name {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q (valid: %s)",
		name, strings.Join(policyNames[:], ", "))
}

// dispatchOne dispatches one task, or one whole forward group, from
// the current phase queue under the run's policy, reporting success.
// The coordinator calls it up to DispatchPerCycle times per cycle,
// stopping at the first false.
//
// The dynamic policies dispatch the queue head. When it produces a
// tagged stream and forwarding is enabled, the coordinator first tries
// to co-dispatch its whole forward group, recovering the pipelined
// inter-task dependence; if the group cannot form, the task runs alone
// with memory-mediated output.
//
// Decisions are event-driven (DESIGN.md §11): the round-robin cursor
// and the static partition change only at a dispatch or a phase
// change, never per tick, so a run decides the same however often the
// coordinator ticks.
func (c *coordinator) dispatchOne() bool {
	if len(c.pending[c.phase]) == 0 {
		return false
	}
	if c.policy == PolicyStatic {
		return c.dispatchStatic()
	}
	if c.m.cfg.Task.EnableForwarding && c.tryForwardGroup() {
		return true
	}
	lane := c.pickLane(0)
	if lane < 0 {
		return false
	}
	c.dispatch(0, lane)
	return true
}

// dispatchStatic is the static-parallel comparator (PolicyStatic): the
// phase's tasks are block-partitioned over lanes in arrival order, and
// each may only run on its assigned lane. It never forms forward
// groups — dependences stay memory-mediated, as in the paper's
// baseline.
func (c *coordinator) dispatchStatic() bool {
	if late := len(c.pending[c.phase]) - len(c.assigned); late > 0 {
		// The phase's first dispatch partitions its queue into
		// contiguous blocks, the compile-time division the paper's
		// baseline uses. Tasks that kernels spawn into the running
		// phase arrive after that; they are block-partitioned among
		// themselves and appended, so every pending task has a lane.
		for i := 0; i < late; i++ {
			c.assigned = append(c.assigned, i*c.m.cfg.Lanes/late)
		}
	}
	// Dispatch the first task whose assigned lane has queue space.
	for i, lane := range c.assigned {
		if c.m.lanes[lane].QueueSpace() == 0 {
			continue
		}
		c.assigned = removeAt(c.assigned, i)
		c.dispatch(i, lane)
		return true
	}
	return false
}

// dispatch pops the idx-th task of the current phase queue and sends
// it to lane, which must have queue space.
func (c *coordinator) dispatch(idx, lane int) {
	t := c.pending[c.phase][idx]
	c.removePending(c.phase, idx)
	r, err := c.m.resolve(t, lane, resolveOpts{})
	if err != nil {
		panic(err)
	}
	c.send(r, lane)
}

// groupLanes places a forward group whose members have work hints w
// (producers in order, consumer last) on distinct lanes with queue
// space, aligned to w, or returns nil.
func (c *coordinator) groupLanes(w []int64) []int {
	if c.policy == PolicyPipeline {
		return c.weightedLanes(w)
	}
	return c.distinctLanes(len(w))
}

// pickLane chooses a dispatch target with queue space whose bit is
// clear in taken, or -1. Work-aware: least outstanding work;
// otherwise round-robin from the cursor, which advances past the pick.
func (c *coordinator) pickLane(taken uint64) int {
	if c.m.cfg.Task.EnableWorkAwareLB {
		return c.leastLoaded(taken)
	}
	n := c.m.cfg.Lanes
	for k := 0; k < n; k++ {
		i := (c.rr + k) % n
		if taken&(1<<i) != 0 || c.m.lanes[i].QueueSpace() == 0 {
			continue
		}
		c.rr = (i + 1) % n
		return i
	}
	return -1
}

// distinctLanes picks k distinct lanes with queue space by the active
// dispatch preference — least outstanding work under work-aware
// balancing, round-robin order (advancing the shared cursor per pick)
// otherwise — or nil if impossible.
func (c *coordinator) distinctLanes(k int) []int {
	chosen := make([]int, 0, k)
	var taken uint64
	for len(chosen) < k {
		lane := c.pickLane(taken)
		if lane < 0 {
			return nil
		}
		taken |= 1 << lane
		chosen = append(chosen, lane)
	}
	return chosen
}

// weightedLanes places a forward group consumer-first: the consumer
// (last member) anchors on the least-loaded free lane — the whole
// group streams through it, so it must reach the fabric fast — then
// the producers, heaviest work hint first, each take the least-loaded
// remaining free lane, so the heavy stage gets the emptiest queue.
// The result is aligned to w's member order, or nil when fewer free
// lanes exist than members.
func (c *coordinator) weightedLanes(w []int64) []int {
	order := make([]int, len(w))
	for i := range order {
		order[i] = i
	}
	order[0], order[len(w)-1] = order[len(w)-1], order[0]
	rest := order[1:]
	sort.SliceStable(rest, func(a, b int) bool { return w[rest[a]] > w[rest[b]] })
	lanes := make([]int, len(w))
	var taken uint64
	for _, m := range order {
		best := c.leastLoaded(taken)
		if best < 0 {
			return nil
		}
		taken |= 1 << best
		lanes[m] = best
	}
	return lanes
}

// leastLoaded returns the lane with queue space and the least
// outstanding work among those whose bit is clear in taken, or -1.
// Ties go to the lowest lane index. Lane counts stay below
// noc.MaxNodes (64), so one uint64 holds every lane's bit.
func (c *coordinator) leastLoaded(taken uint64) int {
	best, bestWork := -1, int64(0)
	for i, n := 0, c.m.cfg.Lanes; i < n; i++ {
		if taken&(1<<i) != 0 || c.m.lanes[i].QueueSpace() == 0 {
			continue
		}
		if w := c.laneWork[i]; best < 0 || w < bestWork {
			best, bestWork = i, w
		}
	}
	return best
}
