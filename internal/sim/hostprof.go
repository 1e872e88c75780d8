package sim

import (
	"fmt"
	"sync"
)

// Host profiling (DESIGN.md §18): a process-wide meter of engine runs —
// how many ran, how many cycles each executed versus fast-forwarded,
// how many component ticks the executed cycles held, and the wall time
// spent inside Run — so a harness can report where simulated time was
// ticked and where it was skipped.
//
// The meter is always on and strictly feedback-free: it reads the host
// clock around Run and copies the engine's own cycle meters, never
// touching simulated state (pinned by TestHostProfIdentity). It costs
// two clock reads and one mutex per run; a -hostprof flag only chooses
// whether a CLI prints it.

// HostProf is a run meter. Every engine run records one and merges it
// into the process-wide aggregate that HostProfSnapshot reads.
type HostProf struct {
	// Runs counts completed engine runs.
	Runs int64
	// ExecutedCycles and SkippedCycles mirror the engine's fast-forward
	// meters, summed over runs.
	ExecutedCycles int64
	SkippedCycles  int64
	// Ticks counts component ticks, summed over runs: a machine of n
	// components that ticked every one every cycle would show n per
	// executed cycle.
	Ticks int64
	// TotalNS is wall time inside Engine.Run.
	TotalNS int64
}

// merge folds o into p.
func (p *HostProf) merge(o *HostProf) {
	p.Runs += o.Runs
	p.ExecutedCycles += o.ExecutedCycles
	p.SkippedCycles += o.SkippedCycles
	p.Ticks += o.Ticks
	p.TotalNS += o.TotalNS
}

// Report renders the -hostprof stderr report.
func (p *HostProf) Report() string {
	perCycle := 0.0
	if p.ExecutedCycles > 0 {
		perCycle = float64(p.Ticks) / float64(p.ExecutedCycles)
	}
	return fmt.Sprintf("host profile: %d runs, wall %.2fms\n  cycles: %d executed, %d fast-forwarded\n  ticks: %d, %.2f per executed cycle\n",
		p.Runs, float64(p.TotalNS)/1e6, p.ExecutedCycles, p.SkippedCycles, p.Ticks, perCycle)
}

// Process-wide aggregate, mutex-folded at run end, never on the cycle
// path.
var (
	hostProfMu  sync.Mutex
	hostProfAgg HostProf
)

// ResetHostProf clears the process-wide aggregate.
func ResetHostProf() {
	hostProfMu.Lock()
	defer hostProfMu.Unlock()
	hostProfAgg = HostProf{}
}

// HostProfSnapshot returns a copy of the process-wide aggregate.
func HostProfSnapshot() HostProf {
	hostProfMu.Lock()
	defer hostProfMu.Unlock()
	return hostProfAgg
}

// mergeHostProf folds one run's record into the aggregate.
func mergeHostProf(p *HostProf) {
	hostProfMu.Lock()
	defer hostProfMu.Unlock()
	hostProfAgg.merge(p)
}
