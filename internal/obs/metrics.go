package obs

import (
	"fmt"
	"strings"

	"taskstream/internal/stats"
)

// Metrics is the registry folded incrementally from the event stream:
// per-lane per-cause cycle breakdowns and the NoC link-transmission
// count, the two things no Report counter holds. It is built by
// Sink.Emit; read it through Sink.Metrics after a run.
type Metrics struct {
	// laneCause[lane][cause] is the cycles lane spent in cause-state
	// spans (KindLaneState Dur totals).
	laneCause map[int32]*[NumCauses]int64

	// NoCHops counts link transmissions (KindNoCHop events).
	NoCHops int64
}

func newMetrics() Metrics {
	return Metrics{laneCause: make(map[int32]*[NumCauses]int64)}
}

// fold accumulates one event into the registry.
func (m *Metrics) fold(ev Event) {
	switch ev.Kind {
	case KindLaneState:
		lc := m.laneCause[ev.Comp]
		if lc == nil {
			lc = new([NumCauses]int64)
			m.laneCause[ev.Comp] = lc
		}
		if ev.Cause < NumCauses {
			lc[ev.Cause] += ev.Dur
		}
	case KindNoCHop:
		m.NoCHops++
	}
}

// LaneCause returns the cycles lane spent in cause-state spans.
func (m *Metrics) LaneCause(lane int, cause Cause) int64 {
	if lc := m.laneCause[int32(lane)]; lc != nil && cause < NumCauses {
		return lc[cause]
	}
	return 0
}

// CauseTotal returns the cycles all lanes together spent in cause.
func (m *Metrics) CauseTotal(cause Cause) int64 {
	var t int64
	for _, lc := range m.laneCause {
		if cause < NumCauses {
			t += lc[cause]
		}
	}
	return t
}

// Stats folds the registry into a named counter set — the surface the
// experiment harness and CLIs print. Counter order is fixed, so the
// output is deterministic.
func (m *Metrics) Stats() *stats.Set {
	s := stats.NewSet()
	for c := Cause(0); c < NumCauses; c++ {
		s.SetVal("obs_lane_cycles_"+c.String(), m.CauseTotal(c))
	}
	s.SetVal("obs_noc_hops", m.NoCHops)
	return s
}

// StallSummary renders the per-lane stall-attribution table: one row
// per lane, one column per cause, each cell the cycles (and share of
// totalCycles) the lane spent there. totalCycles ≤ 0 suppresses the
// percentage column.
func (m *Metrics) StallSummary(lanes int, totalCycles int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall attribution (cycles per lane per cause):\n")
	causes := []Cause{CauseRun, CauseConfig, CauseStallDRAM, CauseStallSpad,
		CauseStallFwd, CauseStallMcast, CauseStallOut, CauseDrain, CauseBarrier}
	fmt.Fprintf(&b, "%-8s", "lane")
	for _, c := range causes {
		fmt.Fprintf(&b, "%12s", c.String())
	}
	b.WriteByte('\n')
	for lane := 0; lane < lanes; lane++ {
		fmt.Fprintf(&b, "%-8d", lane)
		for _, c := range causes {
			fmt.Fprintf(&b, "%12d", m.LaneCause(lane, c))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-8s", "total")
	for _, c := range causes {
		fmt.Fprintf(&b, "%12d", m.CauseTotal(c))
	}
	b.WriteByte('\n')
	if totalCycles > 0 {
		fmt.Fprintf(&b, "%-8s", "share")
		denom := float64(totalCycles) * float64(lanes)
		for _, c := range causes {
			fmt.Fprintf(&b, "%11.1f%%", 100*float64(m.CauseTotal(c))/denom)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
