package obs

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestNilSinkSafe pins the nil-safe contract every hardware model
// relies on: all methods of a nil *Sink are no-ops.
func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	s.Emit(Event{Kind: KindDispatch})
	if s.Len() != 0 || s.Dropped() != 0 || s.Events() != nil || s.Spans() != nil {
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

// TestNilSinkLifecycleSafe pins that a nil sink stays inert under the
// task lifecycle stream lanes emit: no buffered events and no spans.
func TestNilSinkLifecycleSafe(t *testing.T) {
	var s *Sink
	s.Emit(Event{Cycle: 1, Kind: KindDispatch, Comp: 0, Name: "copy"})
	s.Emit(Event{Cycle: 2, Kind: KindTaskStart, Comp: 0, A: 9, Name: "copy"})
	s.Emit(Event{Cycle: 3, Kind: KindTaskComplete, Comp: 0, A: 9, Name: "copy"})
	if s.Len() != 0 || s.Events() != nil || s.Spans() != nil {
		t.Fatal("nil sink must be inert")
	}
}

// TestLimit pins the buffer bound, and the chunked buffer behind it,
// at the chunk boundaries: a limited sink holds exactly its first limit
// events and counts the rest as dropped, a zero limit holds everything,
// and either way Events keeps emission order while the metrics and the
// task spans fold every event.
func TestLimit(t *testing.T) {
	// Task i is dispatched to, started on and completed on lane i%4,
	// with a NoC hop between. The stream spans three chunks and a bit,
	// and ends on a dispatch whose task never starts.
	const total = 3*chunkEvents + 5
	var stream []Event
	wantSpans := map[int64]TaskSpan{}
	for i := 0; len(stream) < total; i++ {
		lane, c := int32(i%4), int64(4*i)
		stream = append(stream,
			Event{Cycle: c, Kind: KindDispatch, Comp: lane, Name: "copy"},
			Event{Cycle: c + 1, Kind: KindTaskStart, Comp: lane, A: int64(i), B: 1, Name: "copy"},
			Event{Cycle: c + 2, Dur: 3, Kind: KindNoCHop, Comp: lane},
			Event{Cycle: c + 3, Kind: KindTaskComplete, Comp: lane, A: int64(i), B: 1, Name: "copy"})
		sp := TaskSpan{Lane: int(lane), TypeName: "copy", Dispatched: c, Started: -1, Completed: -1}
		if len(stream)-3 < total {
			sp.TaskKey, sp.Phase, sp.Started = uint64(i), 1, c+1
		}
		if len(stream) <= total {
			sp.Completed = c + 3
		}
		wantSpans[c] = sp
	}
	stream = stream[:total]
	hops := int64(total / 4)

	for _, limit := range []int{2, chunkEvents - 1, chunkEvents, chunkEvents + 1, 0} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			s := New(limit)
			for _, ev := range stream {
				s.Emit(ev)
			}
			held := total
			if limit > 0 {
				held = limit
			}
			if s.Len() != held || s.Dropped() != int64(total-held) {
				t.Fatalf("Len = %d, Dropped = %d, want %d, %d", s.Len(), s.Dropped(), held, total-held)
			}
			if evs := s.Events(); !slices.Equal(evs, stream[:held]) {
				t.Fatalf("Events returned %d events, not the first %d emitted in order", len(evs), held)
			}
			m := s.Metrics()
			if m.Dispatches != int64(len(wantSpans)) || m.NoCHops != hops || m.NoCBusyCycles != 3*hops {
				t.Fatalf("metrics: dispatches=%d hops=%d busy=%d, want %d, %d, %d",
					m.Dispatches, m.NoCHops, m.NoCBusyCycles, len(wantSpans), hops, 3*hops)
			}
			spans := s.Spans()
			if len(spans) != len(wantSpans) {
				t.Fatalf("%d spans, want %d", len(spans), len(wantSpans))
			}
			for _, sp := range spans {
				if sp != wantSpans[sp.Dispatched] {
					t.Fatalf("span %+v, want %+v", sp, wantSpans[sp.Dispatched])
				}
			}
		})
	}
}

// TestEmitAndEvents pins that Events returns the buffered stream in
// emission order.
func TestEmitAndEvents(t *testing.T) {
	s := New(0)
	s.Emit(Event{Cycle: 5, Kind: KindDispatch, Comp: 1, Name: "copy"})
	s.Emit(Event{Cycle: 7, Kind: KindTaskStart, Comp: 1, A: 9, Name: "copy"})
	s.Emit(Event{Cycle: 20, Kind: KindTaskComplete, Comp: 1, A: 9, Name: "copy"})
	evs := s.Events()
	if s.Len() != 3 || len(evs) != 3 {
		t.Fatalf("Len = %d, Events = %d, want 3", s.Len(), len(evs))
	}
	for i, want := range []Kind{KindDispatch, KindTaskStart, KindTaskComplete} {
		if evs[i].Kind != want {
			t.Fatalf("event %d is %s, want %s", i, evs[i].Kind, want)
		}
	}
	if KindTaskStart.String() != "task-start" || KindTaskComplete.String() != "task-complete" {
		t.Fatal("lifecycle kind names wrong")
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
