package core

import "taskstream/internal/sim"

// dynamicSched is the TaskStream dispatch policy (PolicyDynamic):
// run-time dispatch of the queue head, work-aware least-loaded when
// the config enables it and round-robin otherwise, with forward-group
// co-dispatch when the head task produces a tagged stream.
type dynamicSched struct {
	rr int // round-robin cursor
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
		if s.TryForwardGroup(0, func(w []int64) []int { return d.distinctLanes(s, len(w)) }) {
			return true
		}
	}
	lane := d.pickLane(s)
	if lane < 0 {
		return false
	}
	s.Dispatch(0, lane)
	return true
}

// pickLane chooses a dispatch target with queue space, or -1.
// Work-aware: least outstanding work; otherwise round-robin.
func (d *dynamicSched) pickLane(s *SchedState) int {
	n := s.NumLanes()
	if s.WorkAware() {
		best, bestWork := -1, int64(0)
		for i := 0; i < n; i++ {
			if s.QueueFree(i) == 0 {
				continue
			}
			if best < 0 || s.LaneWork(i) < bestWork {
				best, bestWork = i, s.LaneWork(i)
			}
		}
		return best
	}
	for k := 0; k < n; k++ {
		i := (d.rr + k) % n
		if s.QueueFree(i) == 0 {
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
	n := s.NumLanes()
	chosen := make([]int, 0, k)
	used := make(map[int]bool, k)
	for len(chosen) < k {
		best := -1
		if s.WorkAware() {
			var bestWork int64
			for i := 0; i < n; i++ {
				if used[i] || s.QueueFree(i) == 0 {
					continue
				}
				if best < 0 || s.LaneWork(i) < bestWork {
					best, bestWork = i, s.LaneWork(i)
				}
			}
		} else {
			for j := 0; j < n; j++ {
				i := (d.rr + j) % n
				if used[i] || s.QueueFree(i) == 0 {
					continue
				}
				d.rr = (i + 1) % n
				best = i
				break
			}
		}
		if best < 0 {
			return nil
		}
		used[best] = true
		chosen = append(chosen, best)
	}
	return chosen
}

func (d *dynamicSched) PhaseStart(s *SchedState, p int) {}
