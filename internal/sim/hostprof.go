package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Host profiling (DESIGN.md §18): a process-wide meter of engine runs —
// how many ran, how many cycles each executed versus fast-forwarded,
// and the wall time spent inside Run — so a harness can report where
// simulated time was ticked and where it was skipped.
//
// Profiling is strictly feedback-free: it reads the host clock around
// Run and copies the engine's own cycle meters, never touching
// simulated state, so results are byte-identical with it on or off
// (pinned by TestHostProfIdentity and the host-metrics CI cmp job).

// HostProf is a run meter. Engines record one per run when profiling
// is enabled and merge it into the process-wide aggregate that
// HostProfSnapshot reads.
type HostProf struct {
	// Runs counts completed engine runs.
	Runs int64
	// ExecutedCycles and SkippedCycles mirror the engine's fast-forward
	// meters, summed over profiled runs.
	ExecutedCycles int64
	SkippedCycles  int64
	// TotalNS is wall time inside Engine.Run.
	TotalNS int64
}

// merge folds o into p.
func (p *HostProf) merge(o *HostProf) {
	p.Runs += o.Runs
	p.ExecutedCycles += o.ExecutedCycles
	p.SkippedCycles += o.SkippedCycles
	p.TotalNS += o.TotalNS
}

// Report renders the -hostprof stderr report.
func (p *HostProf) Report() string {
	return fmt.Sprintf("host profile: %d runs, wall %.2fms\n  cycles: %d executed, %d fast-forwarded\n",
		p.Runs, float64(p.TotalNS)/1e6, p.ExecutedCycles, p.SkippedCycles)
}

// Process-wide profiling switch and aggregate. Engines check the
// switch once per Run; the aggregate is mutex-folded at run end, never
// on the cycle path.
var (
	hostProfOn  atomic.Bool
	hostProfMu  sync.Mutex
	hostProfAgg HostProf
)

// SetHostProf turns host profiling on or off process-wide. Runs
// already in flight keep the setting they started with.
func SetHostProf(on bool) { hostProfOn.Store(on) }

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
