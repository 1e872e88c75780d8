package core

import "taskstream/internal/sim"

// staticSched is the static-parallel comparator (PolicyStatic): at
// phase start, the phase's task list is block-partitioned over lanes
// in arrival order; each task may only run on its assigned lane. It
// never forms forward groups — dependences stay memory-mediated, as
// in the paper's baseline.
type staticSched struct {
	// assigned is the per-task lane assignment, parallel to the current
	// phase's pending queue; empty until the first dispatch attempt of
	// the phase builds it.
	assigned []int
}

func (st *staticSched) Dispatch(s *SchedState, now sim.Cycle) bool {
	q := s.Pending()
	if late := len(q) - len(st.assigned); late > 0 {
		// The phase's first dispatch partitions its queue into
		// contiguous blocks, the compile-time division the paper's
		// baseline uses. Tasks that kernels spawn into the running
		// phase arrive after that; they are block-partitioned among
		// themselves and appended, so every pending task has a lane.
		lanes := s.NumLanes()
		for i := 0; i < late; i++ {
			st.assigned = append(st.assigned, i*lanes/late)
		}
	}
	// Dispatch the first task whose assigned lane has queue space.
	for i, lane := range st.assigned {
		if s.QueueFree(lane) == 0 {
			continue
		}
		st.assigned = removeAt(st.assigned, i)
		s.Dispatch(i, lane)
		return true
	}
	return false
}

// PhaseStart drops the previous phase's partition; the next dispatch
// attempt rebuilds it over the new phase's queue.
func (st *staticSched) PhaseStart(s *SchedState, p int) { st.assigned = nil }
