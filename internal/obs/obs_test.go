package obs

import (
	"strings"
	"testing"
)

// TestNilSinkSafe pins the nil-safe contract every hardware model
// relies on: all methods of a nil *Sink are no-ops.
func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	s.Emit(Event{Kind: KindDispatch})
	if s.Len() != 0 || s.Dropped() != 0 || s.Events() != nil {
		t.Fatal("nil sink must observe nothing")
	}
	if s.Metrics() == nil {
		t.Fatal("nil sink must still return an (empty) metrics registry")
	}
	if s.Metrics().Dispatches != 0 {
		t.Fatal("nil sink metrics must be empty")
	}
}

// TestSinkLimitDropsEventsNotMetrics pins the overflow behavior: the
// raw buffer stops at the limit, but metrics keep folding so counters
// stay exact however small the buffer.
func TestSinkLimitDropsEventsNotMetrics(t *testing.T) {
	s := New(2)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Kind: KindDispatch, Cycle: int64(i)})
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", s.Dropped())
	}
	if s.Metrics().Dispatches != 5 {
		t.Fatalf("Dispatches = %d, want 5 (metrics must survive drops)", s.Metrics().Dispatches)
	}
}

// TestEnumStrings pins that every declared kind and cause has a real
// name (exporter labels and summaries depend on it).
func TestEnumStrings(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("Kind %d has no name", k)
		}
	}
	for c := Cause(0); c < NumCauses; c++ {
		if c.String() == "unknown" || c.String() == "" {
			t.Errorf("Cause %d has no name", c)
		}
	}
	if NumKinds.String() != "unknown" || NumCauses.String() != "unknown" {
		t.Error("out-of-range enums must stringify as unknown")
	}
}

// TestMetricsFold pins the per-kind folding rules.
func TestMetricsFold(t *testing.T) {
	s := New(0)
	s.Emit(Event{Kind: KindLaneState, Comp: 0, Cause: CauseRun, Dur: 10})
	s.Emit(Event{Kind: KindLaneState, Comp: 0, Cause: CauseStallDRAM, Dur: 4})
	s.Emit(Event{Kind: KindLaneState, Comp: 1, Cause: CauseRun, Dur: 7})
	s.Emit(Event{Kind: KindNoCHop, Comp: 3, Dur: 2})
	s.Emit(Event{Kind: KindDRAM, Comp: 1, Dur: 8})
	s.Emit(Event{Kind: KindMcastHit, B: 16})
	s.Emit(Event{Kind: KindSpanIssue})
	s.Emit(Event{Kind: KindSpanComplete})
	m := s.Metrics()
	if m.LaneCause(0, CauseRun) != 10 || m.LaneCause(0, CauseStallDRAM) != 4 {
		t.Fatalf("lane 0 cause cycles wrong: run=%d dram=%d",
			m.LaneCause(0, CauseRun), m.LaneCause(0, CauseStallDRAM))
	}
	if m.CauseTotal(CauseRun) != 17 {
		t.Fatalf("CauseTotal(run) = %d, want 17", m.CauseTotal(CauseRun))
	}
	if m.NoCHops != 1 || m.NoCBusyCycles != 2 {
		t.Fatalf("noc: hops=%d busy=%d", m.NoCHops, m.NoCBusyCycles)
	}
	if m.DRAMServices != 1 || m.DRAMBusyCycles != 8 {
		t.Fatalf("dram: services=%d busy=%d", m.DRAMServices, m.DRAMBusyCycles)
	}
	if m.McastHits != 1 || m.McastLinesSaved != 16 {
		t.Fatalf("mcast: hits=%d saved=%d", m.McastHits, m.McastLinesSaved)
	}
	if m.SpansIssued != 1 || m.SpansCompleted != 1 {
		t.Fatalf("spans: issued=%d completed=%d", m.SpansIssued, m.SpansCompleted)
	}
	set := m.Stats()
	if set.Get("obs_lane_cycles_run") != 17 || set.Get("obs_noc_hops") != 1 {
		t.Fatalf("Stats() fold wrong: %s", set.String())
	}
}

// TestStallSummaryRenders pins the table shape: a row per lane, a
// total row, and a share row when a cycle count is supplied.
func TestStallSummaryRenders(t *testing.T) {
	s := New(0)
	s.Emit(Event{Kind: KindLaneState, Comp: 0, Cause: CauseRun, Dur: 80})
	s.Emit(Event{Kind: KindLaneState, Comp: 1, Cause: CauseBarrier, Dur: 20})
	out := s.Metrics().StallSummary(2, 100)
	for _, want := range []string{"lane", "run", "barrier", "total", "share", "80", "20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(s.Metrics().StallSummary(2, 0), "share") {
		t.Fatal("share row must be suppressed without a cycle count")
	}
}
