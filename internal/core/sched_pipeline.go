package core

import (
	"sort"

	"taskstream/internal/sim"
)

// pipelineSched is the Pipeflow-style pipeline scheduler
// (PolicyPipeline) for forward-chained task types. Two mechanisms:
//
//   - Group-first dispatch: it scans up to pipelineWindow queued tasks
//     for a formable forward group instead of only trying the queue
//     head, so producer→consumer pairs co-dispatch even when an
//     unrelated task blocks the head — raising forwarding hits over
//     the dynamic policy on forward-heavy workloads.
//   - Stage affinity: scalar dispatch prices the fabric
//     reconfiguration stall into the lane choice (laneWork plus
//     ConfigPenalty on lanes configured for another type), and
//     repeated groups with the same producer-type signature reuse
//     their previous lanes when free — stable stages, fewer config
//     switches.
type pipelineSched struct {
	// pairLanes remembers, per group signature (seed producer type and
	// group size), the lane tuple the last such group used.
	pairLanes map[int64][]int
}

// pipelineWindow bounds how many queued tasks the policy scans for a
// formable forward group before falling back to head-of-queue
// dispatch.
const pipelineWindow = 32

func newPipelineSched() *pipelineSched {
	return &pipelineSched{pairLanes: make(map[int64][]int)}
}

func (p *pipelineSched) Dispatch(s *SchedState, now sim.Cycle) bool {
	q := s.Pending()
	if s.ForwardingEnabled() {
		for i := 0; i < len(q) && i < pipelineWindow; i++ {
			if q[i].ProducesTag() == 0 {
				continue
			}
			seedType := q[i].Type
			if s.TryForwardGroup(i, func(w []int64) []int { return p.stableLanes(s, seedType, w) }) {
				return true
			}
		}
	}
	// Stage-affine scalar dispatch of the head task: cheapest lane
	// counting both outstanding work and a pending reconfiguration.
	t := &q[0]
	penalty := s.ConfigPenalty()
	best, bestCost := -1, int64(0)
	for i, n := 0, s.NumLanes(); i < n; i++ {
		if s.QueueFree(i) == 0 {
			continue
		}
		cost := s.LaneWork(i)
		if s.LaneConfigured(i) != t.Type {
			cost += penalty
		}
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return false
	}
	s.Dispatch(0, best)
	return true
}

// stableLanes chooses distinct free lanes for a forward group (one per
// member weight), reusing the tuple the last group of the same
// signature ran on when every one of those lanes is idle — the
// producers and consumer land on fabrics already configured for their
// types without serializing behind a busy stage.
func (p *pipelineSched) stableLanes(s *SchedState, seedType int, w []int64) []int {
	key := int64(seedType)<<32 | int64(len(w))
	if prev, ok := p.pairLanes[key]; ok && len(prev) == len(w) {
		idle := true
		for _, l := range prev {
			if s.QueueFree(l) == 0 || s.LaneWork(l) > 0 {
				idle = false
				break
			}
		}
		if idle {
			return prev
		}
	}
	lanes := weightedLanes(s, w)
	if lanes != nil {
		p.pairLanes[key] = append([]int(nil), lanes...)
	}
	return lanes
}

// weightedLanes places a forward group consumer-first: the consumer
// (last member) anchors on the least-loaded free lane — the whole
// group streams through it, so it must reach the fabric fast — then
// the producers, heaviest work hint first, each take the least-loaded
// remaining free lane, so the heavy stage gets the emptiest queue.
// The result is aligned to w's member order; ties break toward lower
// lane ids for determinism.
func weightedLanes(s *SchedState, w []int64) []int {
	order := make([]int, len(w))
	for i := range order {
		order[i] = i
	}
	order[0], order[len(w)-1] = order[len(w)-1], order[0]
	rest := order[1:]
	sort.SliceStable(rest, func(a, b int) bool { return w[rest[a]] > w[rest[b]] })
	lanes := make([]int, len(w))
	taken := make(map[int]bool, len(w))
	for _, m := range order {
		best, bestWork := -1, int64(0)
		for i, n := 0, s.NumLanes(); i < n; i++ {
			if taken[i] || s.QueueFree(i) == 0 {
				continue
			}
			if best < 0 || s.LaneWork(i) < bestWork {
				best, bestWork = i, s.LaneWork(i)
			}
		}
		if best < 0 {
			return nil
		}
		taken[best] = true
		lanes[m] = best
	}
	return lanes
}

// PhaseStart keeps the pair-lane memory: stage stability across phases
// is the point — a merge stage re-entered next phase reuses its lanes.
func (p *pipelineSched) PhaseStart(s *SchedState, ph int) {}
