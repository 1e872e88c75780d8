package core

import (
	"sort"

	"taskstream/internal/sim"
)

// dynamicSched is the TaskStream dispatch policy (PolicyDynamic):
// run-time dispatch of the queue head, work-aware least-loaded when
// the config enables it and round-robin otherwise, with forward-group
// co-dispatch when the head task produces a tagged stream. With
// weighted set it is PolicyPipeline: the same dispatch, except that
// forward groups are placed by weightedLanes instead of distinctLanes.
type dynamicSched struct {
	rr       int  // round-robin cursor
	weighted bool // place forward groups consumer-first by work hint
}

// Dispatch implements the TaskStream policy. When the head task
// produces a tagged stream and forwarding is enabled, the coordinator
// tries to co-dispatch the whole forward group — every still-pending
// producer the consumer needs, plus the consumer — onto distinct
// lanes, recovering the pipelined inter-task dependence. If the group
// cannot be formed (consumer missing, producers missing, too few free
// lanes) the task runs alone with memory-mediated output.
func (d *dynamicSched) Dispatch(s *SchedState, now sim.Cycle) bool {
	t := s.Pending()[0]
	if tag := t.ProducesTag(); tag != 0 && s.ForwardingEnabled() {
		if s.TryForwardGroup(func(w []int64) []int { return d.groupLanes(s, w) }) {
			return true
		}
	}
	lane := d.pickLane(s, 0)
	if lane < 0 {
		return false
	}
	s.Dispatch(0, lane)
	return true
}

// groupLanes places a forward group whose members have work hints w
// (consumer last) on distinct lanes with queue space, or returns nil.
func (d *dynamicSched) groupLanes(s *SchedState, w []int64) []int {
	if d.weighted {
		return weightedLanes(s, w)
	}
	return d.distinctLanes(s, len(w))
}

// pickLane chooses a dispatch target with queue space whose bit is
// clear in taken, or -1. Work-aware: least outstanding work;
// otherwise round-robin from the cursor, which advances past the pick.
func (d *dynamicSched) pickLane(s *SchedState, taken uint64) int {
	if s.WorkAware() {
		return leastLoaded(s, taken)
	}
	n := s.NumLanes()
	for k := 0; k < n; k++ {
		i := (d.rr + k) % n
		if taken&(1<<i) != 0 || s.QueueFree(i) == 0 {
			continue
		}
		d.rr = (i + 1) % n
		return i
	}
	return -1
}

// distinctLanes picks k distinct lanes with queue space by the active
// dispatch preference — least outstanding work under work-aware
// balancing, round-robin order (advancing the shared cursor per pick)
// otherwise — or nil if impossible.
func (d *dynamicSched) distinctLanes(s *SchedState, k int) []int {
	chosen := make([]int, 0, k)
	var taken uint64
	for len(chosen) < k {
		lane := d.pickLane(s, taken)
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
func weightedLanes(s *SchedState, w []int64) []int {
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
		best := leastLoaded(s, taken)
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
func leastLoaded(s *SchedState, taken uint64) int {
	best, bestWork := -1, int64(0)
	for i, n := 0, s.NumLanes(); i < n; i++ {
		if taken&(1<<i) != 0 || s.QueueFree(i) == 0 {
			continue
		}
		if w := s.LaneWork(i); best < 0 || w < bestWork {
			best, bestWork = i, w
		}
	}
	return best
}

func (d *dynamicSched) PhaseStart(s *SchedState, p int) {}
