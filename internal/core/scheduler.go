package core

import (
	"fmt"
	"strings"

	"taskstream/internal/sim"
)

// Policy selects how the machine distributes tasks over lanes. Each
// value names one Scheduler implementation (DESIGN.md §17); the policy
// participates in Options.CacheKey, so runs under distinct policies
// never share a memoized result.
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

// Scheduler is the pluggable dispatch policy behind the coordinator
// (DESIGN.md §17). The coordinator owns everything every policy
// shares — phase queues and barriers, control pipes, the outstanding-
// work load model, forward-group formation, obs emission — and
// delegates only the decisions: which pending task goes to which lane,
// and when to form a forward group.
//
// Contract:
//   - Dispatch is called only when the current phase has pending
//     tasks; it either dispatches exactly one task (or one whole
//     forward group) through SchedState and returns true, or returns
//     false meaning no dispatch is possible this cycle.
//   - All methods run inside the coordinator's Tick, so policies need
//     no locking.
//   - §11 fast-forwarding: policy decisions must be event-driven.
//     State may change only on Dispatch and PhaseStart — both fire
//     identically with fast-forwarding on or off — never as a function
//     of how often Tick happens to run.
type Scheduler interface {
	// Dispatch attempts to dispatch one task (or forward group) from
	// the current phase queue, reporting success. The coordinator calls
	// it up to DispatchPerCycle times per cycle, stopping at the first
	// false.
	Dispatch(s *SchedState, now sim.Cycle) bool
	// PhaseStart announces that the coordinator advanced to phase p;
	// per-phase policy state (partitions, assignments) resets here.
	PhaseStart(s *SchedState, p int)
}

// newScheduler constructs the policy's scheduler. NewMachine validates
// the policy value first, so an unknown one here is an internal error.
func newScheduler(p Policy) (Scheduler, error) {
	switch p {
	case PolicyDynamic:
		return &dynamicSched{}, nil
	case PolicyStatic:
		return &staticSched{}, nil
	case PolicyPipeline:
		return &dynamicSched{weighted: true}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %d (valid: %s)",
			uint8(p), strings.Join(policyNames[:], ", "))
	}
}

// SchedState is the machine view a Scheduler decides over: the current
// phase's task queue, the per-lane load model (queue occupancy plus
// outstanding-work estimates), the mechanism toggles, and the two
// actions — dispatching one task and forming a forward group. It is a
// facade over the coordinator; policies hold no machine references of
// their own, which is what keeps them portable to per-chip
// coordinators later.
type SchedState struct {
	c *coordinator
}

// NumLanes returns the lane count.
func (s *SchedState) NumLanes() int { return s.c.m.cfg.Lanes }

// Pending returns the current phase's undispatched task FIFO. The
// slice is the coordinator's live queue: read-only for policies, and
// invalidated by Dispatch/TryForwardGroup.
func (s *SchedState) Pending() []Task { return s.c.pending[s.c.phase] }

// QueueFree returns the lane's remaining hardware task-queue slots.
func (s *SchedState) QueueFree(lane int) int { return s.c.m.lanes[lane].QueueSpace() }

// LaneWork returns the lane's outstanding work estimate: the sum of
// effective hints of dispatched-but-incomplete tasks.
func (s *SchedState) LaneWork(lane int) int64 { return s.c.laneWork[lane] }

// WorkAware reports whether the config enables work-aware load
// balancing (false means round-robin preference).
func (s *SchedState) WorkAware() bool { return s.c.m.cfg.Task.EnableWorkAwareLB }

// ForwardingEnabled reports whether forward-group formation is on.
func (s *SchedState) ForwardingEnabled() bool { return s.c.m.cfg.Task.EnableForwarding }

// Dispatch pops the idx-th task of the current phase queue and sends
// it to lane, booking the load model and obs dispatch event. The lane
// must have queue space.
func (s *SchedState) Dispatch(idx, lane int) {
	c := s.c
	t := c.pending[c.phase][idx]
	c.removePending(c.phase, idx)
	r, err := c.m.resolve(t, lane, resolveOpts{})
	if err != nil {
		panic(err)
	}
	c.send(r, lane)
}

// TryForwardGroup attempts to co-dispatch the forward group seeded by
// the head pending task (which must produce a forward tag): the
// consumer of its tag plus every other still-pending producer that
// consumer needs. The group-formation mechanics — membership, queue
// removal, gate coupling, destination patching — live in the
// coordinator; the policy supplies only choose, which is handed the
// group members' effective work hints (producers in order, consumer
// last) and returns one distinct lane with queue space per member,
// aligned to the weights (or nil to refuse). Reports whether the group
// dispatched.
func (s *SchedState) TryForwardGroup(choose func(weights []int64) []int) bool {
	return s.c.tryForwardGroup(choose)
}
